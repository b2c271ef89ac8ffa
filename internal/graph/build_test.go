package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
		if !slices.Equal(got.to[u], want.to[u]) || !slices.EqualFunc(got.w[u], want.w[u], sameBits) {
			t.Fatalf("node %d adjacency = %v %v, want %v %v", u, got.to[u], got.w[u], want.to[u], want.w[u])
		}
		if math.Float64bits(got.selfLoop[u]) != math.Float64bits(want.selfLoop[u]) {
			t.Errorf("node %d self-loop = %v, want %v", u, got.selfLoop[u], want.selfLoop[u])
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// edge is one AddEdge call.
type edge struct {
	u, v int
	w    float64
}

// rowEdges returns random edges over n nodes in Builder's row order: rows
// ascending, partners ascending within a row, with self-loops (v == u) and
// parallel edges (a pair drawn twice) mixed in.
func rowEdges(rng *rand.Rand, n, edges int) []edge {
	es := make([]edge, edges)
	for i := range es {
		u := rng.Intn(n)
		es[i] = edge{u, u + rng.Intn(n-u), 0.05 + rng.Float64()}
	}
	slices.SortStableFunc(es, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})
	return es
}

// The row-order build must be indistinguishable from the AddEdge sequence
// it replaces — Louvain's float sums follow the adjacency order — across
// the row buffer's chunk seams, for a node whose run exceeds a chunk, with
// self-loops and parallel edges mixed in, and on pooled chunks that a
// released graph handed back.
func TestBuilderMatchesAddEdgeSequence(t *testing.T) {
	rng := stats.NewRand(5, "builder")
	star := make([]edge, chunkLen+100) // node 0's degree exceeds one chunk
	for i := range star {
		star[i] = edge{0, i + 1, 0.05 + rng.Float64()}
	}
	for _, tc := range []struct {
		name  string
		n     int
		edges []edge
	}{
		{"empty", 40, nil},
		{"one", 40, []edge{{3, 7, 0.5}}},
		{"small", 40, rowEdges(rng, 40, 300)},
		{"seams", 40, rowEdges(rng, 40, 3*chunkLen+500)},
		{"star", len(star) + 1, star},
		// Laid out in the chunks the graphs above released.
		{"after release", 300, rowEdges(rng, 300, 2*chunkLen)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, b := New(tc.n), NewBuilder(tc.n)
			for _, e := range tc.edges {
				if err := errors.Join(want.AddEdge(e.u, e.v, e.w), b.AddEdge(e.u, e.v, e.w)); err != nil {
					t.Fatal(err)
				}
			}
			got := b.Graph()
			sameGraph(t, got, want)

			// Growing a node must not spill into the next node's run.
			for u := 0; u+1 < tc.n; u += 2 {
				if err := errors.Join(want.AddEdge(u, u+1, 0.25), got.AddEdge(u, u+1, 0.25)); err != nil {
					t.Fatal(err)
				}
			}
			sameGraph(t, got, want)
			got.Release()
		})
	}

	// An edge out of row order, out of range or not positive is refused
	// and leaves the graph as if it had never been offered.
	t.Run("rejected", func(t *testing.T) {
		want, b := New(10), NewBuilder(10)
		for _, e := range []struct {
			edge
			ok bool
		}{
			{edge{2, 5, 1}, true},
			{edge{5, 3, 1}, false}, // v < u: it belongs to row 3
			{edge{2, 2, 1}, true},  // a self-loop in the current row
			{edge{4, 9, 1}, true},
			{edge{3, 8, 1}, false}, // row 3 after row 4
			{edge{3, 3, 1}, false},
			{edge{4, 10, 1}, false}, // out of range
			{edge{4, 6, 0}, false},  // not positive
			{edge{4, 6, 2}, true},
		} {
			if err := b.AddEdge(e.u, e.v, e.w); (err == nil) != e.ok {
				t.Errorf("AddEdge(%d, %d, %g) = %v, want accepted %v", e.u, e.v, e.w, err, e.ok)
			}
			if e.ok {
				_ = want.AddEdge(e.u, e.v, e.w)
			}
		}
		sameGraph(t, b.Graph(), want)
	})
}

// AddRow must be the AddEdge sequence of the row's kept edges: weights not
// positive, below minW or NaN dropped, the rest in order, across the row
// buffer's chunk seams.
func TestBuilderAddRowMatchesAddEdge(t *testing.T) {
	rng := stats.NewRand(17, "addrow")
	const n, minW = 600, 0.1
	special := []float64{-1, 0, math.NaN(), minW / 2, math.Nextafter(minW, 0), minW}
	want, b := New(n), NewBuilder(n)
	var vs []int32
	var ws []float64
	kept := 0
	for u := 0; u < n; u++ {
		vs, ws = vs[:0], ws[:0]
		for v := u + 1; v < n; v++ {
			if rng.Intn(8) != 0 {
				continue
			}
			w := 0.05 + rng.Float64()
			if rng.Intn(5) == 0 {
				w = special[rng.Intn(len(special))]
			}
			vs, ws = append(vs, int32(v)), append(ws, w)
			if w > 0 && w >= minW {
				if err := want.AddEdge(u, v, w); err != nil {
					t.Fatal(err)
				}
				kept++
			}
		}
		if err := b.AddRow(u, vs, ws, minW); err != nil {
			t.Fatal(err)
		}
	}
	if kept < 2*chunkLen {
		t.Fatalf("only %d edges kept: the fixture crosses no chunk seam", kept)
	}
	sameGraph(t, b.Graph(), want)

	// A row out of order is refused whole; a kept edge out of range stops
	// the row after the edges before it, as the AddEdge sequence would.
	want, b = New(10), NewBuilder(10)
	for _, r := range []struct {
		u  int
		vs []int32
		ws []float64
		ok bool
	}{
		{3, []int32{5, 7}, []float64{1, 2}, true},
		{2, []int32{4}, []float64{1}, false},                // row 2 after row 3
		{3, []int32{2}, []float64{1}, false},                // partner below the row
		{3, []int32{3}, []float64{1}, false},                // a self-loop is AddEdge's
		{4, []int32{6, 8, 10}, []float64{1, 0.5, 1}, false}, // 10 out of range
		{5, []int32{6, 7}, []float64{0, math.NaN()}, true},  // nothing kept
		{5, []int32{9}, []float64{3}, true},
	} {
		if err := b.AddRow(r.u, r.vs, r.ws, 0); (err == nil) != r.ok {
			t.Errorf("AddRow(%d, %v, %v) = %v, want accepted %v", r.u, r.vs, r.ws, err, r.ok)
		}
	}
	for _, e := range []edge{{3, 5, 1}, {3, 7, 2}, {4, 6, 1}, {4, 8, 0.5}, {5, 9, 3}} {
		_ = want.AddEdge(e.u, e.v, e.w)
	}
	sameGraph(t, b.Graph(), want)
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

// louvainLocal runs one local-move phase on fresh scratch.
func (g *Graph) louvainLocal(seed int64) (bool, []int) {
	return new(louvainScratch).local(g, seed)
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

// referenceAggregate is aggregate as it was before it summed a community's
// self-loop in locals: one Builder.AddEdge(c, c, ·) per member self-loop
// and per intra-community edge. Kept as the oracle.
func referenceAggregate(g *Graph, community []int) *Graph {
	groups := Communities(community)
	k := len(groups)
	agg := NewBuilder(k)
	neighW := make([]float64, k)
	var touched []int32
	for c, members := range groups {
		for _, u := range members {
			if g.selfLoop[u] > 0 {
				_ = agg.AddEdge(c, c, g.selfLoop[u])
			}
		}
		for _, u := range members {
			for i, v := range g.to[u] {
				switch cv := community[v]; {
				case cv == c:
					if int(v) > u {
						_ = agg.AddEdge(c, c, g.w[u][i])
					}
				case cv > c:
					if neighW[cv] == 0 {
						touched = append(touched, int32(cv))
					}
					neighW[cv] += g.w[u][i]
				}
			}
		}
		slices.Sort(touched)
		for _, cv := range touched {
			_ = agg.AddEdge(c, int(cv), neighW[cv])
			neighW[cv] = 0
		}
		touched = touched[:0]
	}
	return agg.Graph()
}

// aggregate's local sums must add in exactly the order the AddEdge calls
// did: same self-loop and total weight bits, same adjacency, on Louvain's
// own labellings and on random ones, level after level.
func TestAggregateMatchesAddEdge(t *testing.T) {
	rng := stats.NewRand(21, "aggregate")
	random := func() *Graph {
		g := New(400)
		for i := 0; i < 3000; i++ {
			_ = g.AddEdge(rng.Intn(400), rng.Intn(400), 0.05+rng.Float64()) // u == v: a self-loop
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"multilevel", multiLevelGraph(t)}, {"random", random()}, {"random2", random()}} {
		work := tc.g
		for level := 0; level < 6; level++ {
			_, labels := work.louvainLocal(stats.DeriveSeed(2, fmt.Sprintf("louvain-%d", level)))
			shuffled := make([]int, work.N())
			for i := range shuffled {
				shuffled[i] = rng.Intn(1 + work.N()/3)
			}
			for _, l := range [][]int{labels, compactLabels(shuffled)} {
				got, _ := work.aggregate(l)
				sameGraph(t, got, referenceAggregate(work, l))
			}
			work, _ = work.aggregate(labels)
			if work.N() < 2 {
				break
			}
		}
	}
}

// referenceLocal is the local-move phase before its sort-free candidate
// choice: every visit sorts the touched communities and scans them all.
// Kept as the oracle.
func referenceLocal(g *Graph, seed int64) (bool, []int) {
	n := g.N()
	community := make([]int, n)
	degree := make([]float64, n)
	tot := make([]float64, n)
	for i := 0; i < n; i++ {
		community[i] = i
		degree[i] = g.Degree(i)
		tot[i] = degree[i]
	}
	m2 := 2 * g.sumWeight
	if m2 == 0 {
		return false, compactLabels(community)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := stats.NewRand(seed, "order")
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	neighW := make([]float64, n)
	seen := make([]bool, n)
	var touched []int32
	improvedAny := false
	for pass := 0; pass < 100; pass++ {
		improved := false
		for _, u := range order {
			cu := community[u]
			for i, v := range g.to[u] {
				c := community[v]
				if !seen[c] {
					seen[c] = true
					touched = append(touched, int32(c))
				}
				neighW[c] += g.w[u][i]
			}
			tot[cu] -= degree[u]
			bestC, bestGain := cu, neighW[cu]-tot[cu]*degree[u]/m2
			slices.Sort(touched)
			for _, c32 := range touched {
				c := int(c32)
				if gain := neighW[c] - tot[c]*degree[u]/m2; gain > bestGain+1e-12 {
					bestC, bestGain = c, gain
				}
			}
			tot[bestC] += degree[u]
			if bestC != cu {
				community[u] = bestC
				improved, improvedAny = true, true
			}
			for _, c := range touched {
				neighW[c], seen[c] = 0, false
			}
			touched = touched[:0]
		}
		if !improved {
			break
		}
	}
	return improvedAny, compactLabels(community)
}

// The sort-free candidate choice must move every node where the sorted scan
// does — on exact ties (integer weights), near-ties (< 1e-12 apart) and
// distinct gains — level after level, on one scratch resliced per level.
func TestLouvainLocalMatchesSortedScan(t *testing.T) {
	rng := stats.NewRand(13, "ties")
	random := func(weight func() float64) *Graph {
		g := New(300)
		for i := 0; i < 1500; i++ {
			_ = g.AddEdge(rng.Intn(300), rng.Intn(300), weight()) // u == v: a self-loop
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"multilevel", multiLevelGraph(t)},
		{"integer", random(func() float64 { return float64(1 + rng.Intn(3)) })},
		{"near-tie", random(func() float64 { return 1 + float64(rng.Intn(4))*3e-13 })},
		{"float", random(func() float64 { return 0.05 + rng.Float64() })},
	} {
		var s louvainScratch
		work := tc.g
		for level := 0; ; level++ {
			seed := stats.DeriveSeed(1, fmt.Sprintf("louvain-%d", level))
			wantMoved, want := referenceLocal(work, seed)
			moved, got := s.local(work, seed)
			if moved != wantMoved || !slices.Equal(got, want) {
				t.Fatalf("%s level %d: moved %v labels %v, want %v %v", tc.name, level, moved, got, wantMoved, want)
			}
			if !moved || level == 10 {
				break
			}
			work, _ = work.aggregate(want)
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
