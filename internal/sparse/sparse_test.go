package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pair is one co-occurring row pair with its intersection count.
type pair struct {
	A, B  int32 // row ids, A < B
	Count int32 // number of shared features
}

// pairsOf materializes the streamed product, in arrival order.
func pairsOf(m *Incidence, maxFanout int) []pair {
	var pairs []pair
	m.CoOccurrence(maxFanout, func(a int, partners, counts []int32) {
		for _, b := range partners {
			pairs = append(pairs, pair{A: int32(a), B: b, Count: counts[b]})
		}
	})
	return pairs
}

func TestCoOccurrenceBasic(t *testing.T) {
	m := NewIncidence(3)
	// Rows 0 and 1 share features 1, 2; row 2 shares only feature 2.
	m.Set(0, 1)
	m.Set(0, 2)
	m.Set(1, 1)
	m.Set(1, 2)
	m.Set(2, 2)
	pairs := pairsOf(m, 0)
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs, want 3: %+v", len(pairs), pairs)
	}
	byPair := make(map[[2]int32]int32)
	for _, p := range pairs {
		byPair[[2]int32{p.A, p.B}] = p.Count
	}
	if byPair[[2]int32{0, 1}] != 2 {
		t.Errorf("0,1 count = %d, want 2", byPair[[2]int32{0, 1}])
	}
	if byPair[[2]int32{0, 2}] != 1 {
		t.Errorf("0,2 count = %d, want 1", byPair[[2]int32{0, 2}])
	}
}

func TestCoOccurrenceDedup(t *testing.T) {
	m := NewIncidence(2)
	m.Set(0, 1)
	m.Set(0, 1) // duplicate must not double-count
	m.Set(1, 1)
	pairs := pairsOf(m, 0)
	if len(pairs) != 1 || pairs[0].Count != 1 {
		t.Fatalf("pairs = %+v, want one pair with count 1", pairs)
	}
}

func TestFanoutCap(t *testing.T) {
	m := NewIncidence(5)
	// Popular feature shared by 5 rows; rare feature shared by 2.
	for r := 0; r < 5; r++ {
		m.Set(r, 100)
	}
	m.Set(0, 200)
	m.Set(1, 200)
	if got := len(pairsOf(m, 0)); got != 10 {
		t.Errorf("uncapped pairs = %d, want 10", got)
	}
	capped := pairsOf(m, 4)
	if len(capped) != 1 {
		t.Fatalf("capped pairs = %+v, want only the rare pair", capped)
	}
	// What the cap skipped is still countable per pair: every pair shares
	// the one hub feature, so count + SharedSkipped is the exact size.
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			if got := m.SharedSkipped(a, b); got != 1 {
				t.Errorf("SharedSkipped(%d,%d) = %d, want 1", a, b, got)
			}
		}
	}
	pairsOf(m, 0)
	if got := m.SharedSkipped(0, 1); got != 0 {
		t.Errorf("uncapped SharedSkipped = %d, want 0", got)
	}
}

func TestCoOccurrenceMatchesBruteForce(t *testing.T) {
	// Property: on random incidence relations, under any fan-out cap, the
	// streamed count plus what SharedSkipped reports for the pair equals
	// the brute-force set intersection; uncapped, the count alone does, and
	// exactly the intersecting pairs are streamed.
	f := func(edges []uint16) bool {
		sets := make(map[int]map[int]bool)
		fanout := make(map[int]int)
		for _, e := range edges {
			r := int(e>>8) % 8
			c := int(e & 0xff % 32)
			if sets[r] == nil {
				sets[r] = make(map[int]bool)
			}
			if !sets[r][c] {
				fanout[c]++
			}
			sets[r][c] = true
		}
		for _, maxFanout := range []int{0, 2, 3} {
			m := NewIncidence(8)
			for _, e := range edges {
				m.Set(int(e>>8)%8, uint64(e&0xff%32))
			}
			got := make(map[[2]int32]int32)
			for _, p := range pairsOf(m, maxFanout) {
				got[[2]int32{p.A, p.B}] = p.Count
			}
			for a := 0; a < 8; a++ {
				for b := a + 1; b < 8; b++ {
					exact, underCap := 0, 0
					for c := range sets[a] {
						if sets[b][c] {
							exact++
							if maxFanout == 0 || fanout[c] <= maxFanout {
								underCap++
							}
						}
					}
					count, streamed := got[[2]int32{int32(a), int32(b)}]
					if int(count) != underCap || streamed != (underCap > 0) ||
						int(count)+m.SharedSkipped(a, b) != exact {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A row scorer asks SkipsAny once per row and calls SharedSkipped only for
// rows where it holds. On random incidences whose hub features exceed the
// cap on some rows and not on others, that must give every pair the
// per-pair count + SharedSkipped.
func TestSkipsAnyShortCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, maxFanout = 200, 30
	for round := 0; round < 5; round++ {
		m := NewIncidence(rows)
		for r := 0; r < rows; r++ {
			for i, n := 0, 1+rng.Intn(8); i < n; i++ {
				m.Set(r, uint64(rng.Intn(60)))
			}
			for hub := uint64(1000); hub < 1003; hub++ {
				if rng.Intn(3) == 0 { // about 67 rows: over the cap
					m.Set(r, hub)
				}
			}
		}
		skipping, clean := 0, 0
		m.CoOccurrence(maxFanout, func(a int, partners, counts []int32) {
			skips := m.SkipsAny(a)
			if skips {
				skipping++
			} else {
				clean++
			}
			for _, p := range partners {
				want := int(counts[p]) + m.SharedSkipped(a, int(p))
				got := int(counts[p])
				if skips {
					got += m.SharedSkipped(a, int(p))
				}
				if got != want {
					t.Fatalf("round %d pair (%d,%d): short-circuit count %d, per-pair %d", round, a, p, got, want)
				}
			}
		})
		if skipping == 0 || clean == 0 {
			t.Fatalf("round %d: %d rows with skipped features, %d without: the fixture needs both", round, skipping, clean)
		}
	}
}

func TestCoOccurrenceSorted(t *testing.T) {
	dense := NewIncidence(3) // partners contiguous: ordered by the sweep
	for r := 2; r >= 0; r-- {
		dense.Set(r, 1)
		dense.Set(r, 2)
	}
	// Row 0's partners 5, 20, 150, 190 are met out of order (feature by
	// feature) and lie far apart: ordered by the comparison sort.
	scattered := NewIncidence(200)
	for f, rows := range [][]int{{0, 150, 20}, {0, 190}, {0, 5}} {
		for _, r := range rows {
			scattered.Set(r, uint64(f))
		}
	}
	for name, m := range map[string]*Incidence{"dense": dense, "scattered": scattered} {
		pairs := pairsOf(m, 0)
		if len(pairs) < 3 {
			t.Fatalf("%s: pairs = %+v", name, pairs)
		}
		for i := 1; i < len(pairs); i++ {
			prev, cur := pairs[i-1], pairs[i]
			if prev.A > cur.A || (prev.A == cur.A && prev.B >= cur.B) {
				t.Fatalf("%s: pairs not sorted: %+v", name, pairs)
			}
		}
	}
}

func TestEmptyIncidence(t *testing.T) {
	m := NewIncidence(0)
	if got := pairsOf(m, 0); len(got) != 0 {
		t.Errorf("empty incidence produced pairs: %v", got)
	}
	if m.Rows() != 0 || m.Features() != 0 {
		t.Error("empty incidence reports nonzero dims")
	}
}

func TestSetStringFeatures(t *testing.T) {
	m := NewIncidence(3)
	m.SetString(0, "tok-a")
	m.SetString(1, "tok-a")
	m.Set(1, 7)
	m.Set(2, 7)
	pairs := pairsOf(m, 0)
	byPair := make(map[[2]int32]int32)
	for _, p := range pairs {
		byPair[[2]int32{p.A, p.B}] = p.Count
	}
	if byPair[[2]int32{0, 1}] != 1 || byPair[[2]int32{1, 2}] != 1 {
		t.Fatalf("mixed string/id features miscounted: %+v", pairs)
	}
	if m.Features() != 2 {
		t.Errorf("Features = %d, want 2", m.Features())
	}
}

// A pooled incidence must behave like a fresh one after Reset, with no
// state bleeding between uses.
func TestPoolReuse(t *testing.T) {
	m := Get(3)
	m.Set(0, 1)
	m.Set(1, 1)
	m.SetString(2, "x")
	if got := len(pairsOf(m, 0)); got != 1 {
		t.Fatalf("first use pairs = %d, want 1", got)
	}
	m.Release()

	m2 := Get(2)
	if m2.Features() != 0 || m2.Rows() != 2 {
		t.Fatalf("pooled incidence not reset: %d features, %d rows", m2.Features(), m2.Rows())
	}
	if got := len(pairsOf(m2, 0)); got != 0 {
		t.Fatalf("pooled incidence leaked pairs: %d", got)
	}
	m2.Set(0, 99)
	m2.Set(1, 99)
	pairs := pairsOf(m2, 0)
	if len(pairs) != 1 || pairs[0].Count != 1 {
		t.Fatalf("pooled incidence after reuse: %+v", pairs)
	}
	m2.Release()
}
