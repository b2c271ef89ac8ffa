package graph

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"smash/internal/stats"
)

// sameGraph fails unless got is, bit for bit, the graph want is: the same
// adjacency sequence per node, self-loops and total weight.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	if got.EdgeCount() != want.EdgeCount() {
		t.Errorf("EdgeCount = %d, want %d", got.EdgeCount(), want.EdgeCount())
	}
	if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
		t.Errorf("TotalWeight = %v, want %v", got.TotalWeight(), want.TotalWeight())
	}
	for u := 0; u < want.N(); u++ {
		if !slices.Equal(got.to[u], want.to[u]) || !slices.Equal(got.w[u], want.w[u]) {
			t.Fatalf("node %d adjacency = %v %v, want %v %v", u, got.to[u], got.w[u], want.to[u], want.w[u])
		}
		if math.Float64bits(got.selfLoop[u]) != math.Float64bits(want.selfLoop[u]) {
			t.Errorf("node %d self-loop = %v, want %v", u, got.selfLoop[u], want.selfLoop[u])
		}
	}
}

// The one-pass build must be indistinguishable from the AddEdge sequence
// it replaces — Louvain's float sums follow the adjacency order — for any
// edge order, with self-loops, parallel edges and rejected edges mixed in.
func TestBuilderMatchesAddEdgeSequence(t *testing.T) {
	rng := stats.NewRand(5, "builder")
	const n = 40
	// More edges than one chunk holds, so the chunk seam is crossed.
	for _, edges := range []int{0, 1, 300, builderChunk + 500} {
		want, b := New(n), NewBuilder(n)
		for i := 0; i < edges; i++ {
			u, v, w := rng.Intn(n+2)-1, rng.Intn(n+2)-1, rng.Float64()-0.05
			errWant, errGot := want.AddEdge(u, v, w), b.AddEdge(u, v, w)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("edge (%d,%d,%g): Builder err = %v, Graph err = %v", u, v, w, errGot, errWant)
			}
		}
		got := b.Graph()
		sameGraph(t, got, want)

		// The nodes share one backing array; growing one must not spill
		// into the next node's run.
		for u := 0; u+1 < n; u += 2 {
			if err := errors.Join(want.AddEdge(u, u+1, 0.25), got.AddEdge(u, u+1, 0.25)); err != nil {
				t.Fatal(err)
			}
		}
		sameGraph(t, got, want)
	}
}

// multiLevelGraph is a ring of 64 small cliques with irregular weights:
// the first Louvain level finds the cliques, the second merges neighbours
// along the ring, so aggregation runs and its float sums matter.
func multiLevelGraph(t *testing.T) *Graph {
	t.Helper()
	rng := stats.NewRand(9, "multilevel")
	const cliques, size = 64, 4
	g := New(cliques * size)
	for c := 0; c < cliques; c++ {
		nodes := make([]int, size)
		for i := range nodes {
			nodes[i] = c*size + i
		}
		for i := range nodes {
			for j := i + 1; j < size; j++ {
				if err := g.AddEdge(nodes[i], nodes[j], 0.7+rng.Float64()/3); err != nil {
					t.Fatal(err)
				}
			}
		}
		next := ((c + 1) % cliques) * size
		for i := 0; i < 2; i++ {
			if err := g.AddEdge(nodes[i], next+i, 0.1+rng.Float64()/7); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// The super-graph used to be filled by ranging over a map, so its adjacency
// order — and the float summation order of every level past the first —
// changed from run to run.
func TestAggregateDeterministic(t *testing.T) {
	g := multiLevelGraph(t)
	moved, local := g.louvainLocal(stats.DeriveSeed(3, "louvain-0"))
	if !moved {
		t.Fatal("level 0 moved nothing")
	}
	first, k := g.aggregate(local)
	if k >= g.N() || k < 2 {
		t.Fatalf("level 0 left %d communities of %d nodes", k, g.N())
	}
	if moved, _ := first.louvainLocal(stats.DeriveSeed(3, "louvain-1")); !moved {
		t.Fatal("the super-graph needs no second level: the fixture does not exercise aggregation")
	}
	for u := range first.to {
		if !slices.IsSorted(first.to[u]) {
			t.Fatalf("super-node %d adjacency not in ascending neighbour order: %v", u, first.to[u])
		}
	}
	if got, want := first.TotalWeight(), g.TotalWeight(); math.Abs(got-want) > 1e-9 {
		t.Errorf("super-graph weight = %v, want %v", got, want)
	}
	labels := g.Louvain(3)
	for run := 0; run < 50; run++ {
		again, _ := g.aggregate(local)
		sameGraph(t, again, first)
		if got := g.Louvain(3); !slices.Equal(got, labels) {
			t.Fatalf("run %d: labels = %v, want %v", run, got, labels)
		}
	}
}

// referenceDensity is the map-based SubgraphDensity the stamp arrays
// replaced, kept as the oracle.
func referenceDensity(g *Graph, members []int) float64 {
	v := len(members)
	if v < 2 {
		return 0
	}
	in := make(map[int]bool, v)
	for _, u := range members {
		in[u] = true
	}
	type pairKey struct{ a, b int }
	seen := make(map[pairKey]bool)
	for _, u := range members {
		g.Neighbors(u, func(t int, _ float64) {
			if !in[t] || t == u {
				return
			}
			a, b := u, t
			if a > b {
				a, b = b, a
			}
			seen[pairKey{a, b}] = true
		})
	}
	return 2 * float64(len(seen)) / (float64(v) * float64(v-1))
}

// densityFixture returns a graph with parallel edges and self-loops and
// member lists that are unsorted, repeat members and overlap each other.
func densityFixture(seed int64) (*Graph, [][]int) {
	rng := stats.NewRand(seed, "density")
	const n = 120
	g := New(n)
	for i := 0; i < 900; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if i%3 == 0 {
			v = (u + 1 + rng.Intn(4)) % n // few distinct pairs: parallel edges
		}
		_ = g.AddEdge(u, v, 0.5+rng.Float64()) // u == v adds a self-loop
	}
	var sets [][]int
	for s := 0; s < 60; s++ {
		members := make([]int, 1+rng.Intn(25))
		for i := range members {
			members[i] = rng.Intn(n)
			if i > 0 && rng.Intn(5) == 0 {
				members[i] = members[rng.Intn(i)] // listed twice
			}
		}
		sets = append(sets, members)
	}
	return g, sets
}

func TestSubgraphDensityMatchesReference(t *testing.T) {
	g, sets := densityFixture(1)
	for _, members := range sets {
		got, want := g.SubgraphDensity(members), referenceDensity(g, members)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("density(%v) = %v, want %v", members, got, want)
		}
	}
	// A scratch sized by a big graph serves a small one and vice versa.
	small := New(3)
	_ = small.AddEdge(0, 2, 1)
	if got := small.SubgraphDensity([]int{2, 0}); got != 1 {
		t.Errorf("small graph density = %v, want 1", got)
	}
	if got, want := g.SubgraphDensity(sets[0]), referenceDensity(g, sets[0]); got != want {
		t.Errorf("density after a smaller graph = %v, want %v", got, want)
	}
}

// Two goroutines interleave calls on two graphs: the pooled scratch must
// never be shared between calls in flight.
func TestSubgraphDensityConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := int64(0); w < 2; w++ {
		g, sets := densityFixture(10 + w)
		want := make([]float64, len(sets))
		for i, members := range sets {
			want[i] = referenceDensity(g, members)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, members := range sets {
					if got := g.SubgraphDensity(members); got != want[i] {
						t.Errorf("density(%v) = %v, want %v", members, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The stamps must survive the counter's wrap-around.
func TestSubgraphDensityStampWrap(t *testing.T) {
	g, sets := densityFixture(2)
	wrapped := 0
	for _, members := range sets {
		s := densityPool.Get().(*densityScratch)
		if len(s.member) > 0 { // a used scratch, full of stale stamps
			s.stamp = math.MaxUint32 - 3
			wrapped++
		}
		densityPool.Put(s)
		if got, want := g.SubgraphDensity(members), referenceDensity(g, members); got != want {
			t.Fatalf("density(%v) near the wrap = %v, want %v", members, got, want)
		}
	}
	if wrapped == 0 && !raceEnabled { // under -race the pool drops items at random
		t.Error("no call ran on a used scratch: the wrap was never exercised")
	}
}
