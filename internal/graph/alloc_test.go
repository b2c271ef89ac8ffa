package graph

import "testing"

// Louvain's local-move phase must not allocate per node: the dense
// community-weight scratch replaced a per-node map + candidate slice +
// sort. Allocations should scale with levels (a handful of slices each),
// not with nodes×passes. This is the -benchmem guard for the miner's
// community-detection hot loop in test form.
func TestLouvainAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold on production builds")
	}
	const n = 600
	g := New(n)
	// Planted partition: 12 communities, dense intra edges, sparse noise.
	state := uint64(2463534242)
	next := func(m int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(m))
	}
	for i := 0; i < 6*n; i++ {
		c := next(12)
		lo, hi := c*n/12, (c+1)*n/12
		u, v := lo+next(hi-lo), lo+next(hi-lo)
		if u != v {
			_ = g.AddEdge(u, v, 1)
		}
	}
	for i := 0; i < n/4; i++ {
		u, v := next(n), next(n)
		if u != v {
			_ = g.AddEdge(u, v, 0.3)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if labels := g.Louvain(7); len(labels) != n {
			t.Fatal("bad labels")
		}
	})
	// Observed ~60 for this graph (per-level slices, the super-graph's
	// builder). A return to per-node allocation would be tens of thousands.
	if allocs > 600 {
		t.Errorf("Louvain = %.0f allocs, want <= 600 (scratch reuse regressed)", allocs)
	}
}

// A similarity graph is built and released once per dimension per window:
// in steady state its chunks come back from the pool, so a build allocates
// the per-node arrays and the chunk lists — a few dozen objects whatever
// the edge count, never one per edge or per chunk.
func TestBuilderAllocsIndependentOfEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold on production builds")
	}
	const n = 2000
	for _, span := range []int{60, 120} { // 118 170 and 232 740 edges
		cycle := func() {
			b := NewBuilder(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < min(n, u+1+span); v++ {
					_ = b.AddEdge(u, v, 1)
				}
			}
			b.Graph().Release()
		}
		cycle() // fill the pool
		if allocs := testing.AllocsPerRun(5, cycle); allocs > 32 {
			t.Errorf("build + Release of span %d = %.0f allocs, want <= 32", span, allocs)
		}
	}
}

// Herd density is computed for every community of every dimension of every
// window: the pooled stamp arrays must leave it nothing to allocate.
func TestSubgraphDensityAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold on production builds")
	}
	g, sets := densityFixture(3)
	g.SubgraphDensity(sets[0]) // size the scratch
	allocs := testing.AllocsPerRun(20, func() {
		for _, members := range sets {
			g.SubgraphDensity(members)
		}
	})
	if allocs != 0 {
		t.Errorf("SubgraphDensity = %.0f allocs per %d calls, want 0", allocs, len(sets))
	}
}
