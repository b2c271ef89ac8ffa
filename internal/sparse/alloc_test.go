package sparse

import "testing"

// fillIncidence populates a pooled incidence with a fixed pseudo-random
// relation (xorshift; no rand dependency so the workload is identical
// every run).
func fillIncidence(m *Incidence, rows, featsPerRow int) {
	state := uint64(88172645463325252)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for r := 0; r < rows; r++ {
		for k := 0; k < featsPerRow; k++ {
			m.Set(r, next()%512)
		}
	}
}

// The pooled incidence + dense co-occurrence accumulator must keep the
// steady-state allocation profile flat: after warm-up, one full
// build+product+release cycle stays under a small constant bound instead
// of scaling with rows×features (the map-based implementation allocated
// per feature and per pair). This is the -benchmem guard for the mining
// hot loop in test form.
func TestCoOccurrenceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold on production builds")
	}
	const rows, feats = 400, 12
	// Warm the pools: first cycle sizes every buffer.
	m := Get(rows)
	fillIncidence(m, rows, feats)
	pairs := 0
	countPairs := func(_ int, partners, _ []int32) { pairs += len(partners) }
	m.CoOccurrence(9, countPairs)
	m.Release()

	allocs := testing.AllocsPerRun(10, func() {
		m := Get(rows)
		fillIncidence(m, rows, feats)
		pairs = 0
		m.CoOccurrence(9, countPairs)
		if pairs == 0 {
			t.Fatal("no pairs")
		}
		m.Release()
	})
	// The product streams its rows, so with the incidence, the accumulator,
	// the cursors and the skipped-feature index (cap 9: some features are
	// over it) all pooled, nothing is left to allocate. The bound leaves
	// headroom for a pool emptied by a GC cycle mid-run while still
	// catching a return to per-feature or per-pair allocation (thousands).
	if allocs > 8 {
		t.Errorf("steady-state CoOccurrence cycle = %.0f allocs, want <= 8 (pooling regressed)", allocs)
	}
}
