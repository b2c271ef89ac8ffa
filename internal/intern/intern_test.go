package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	if tb.Len() != 0 {
		t.Fatalf("new table Len = %d", tb.Len())
	}
	a := tb.ID("alpha")
	b := tb.ID("beta")
	if a == b {
		t.Fatalf("distinct strings share id %d", a)
	}
	if got := tb.ID("alpha"); got != a {
		t.Errorf("re-intern changed id: %d != %d", got, a)
	}
	if tb.Name(a) != "alpha" || tb.Name(b) != "beta" {
		t.Errorf("Name roundtrip: %q %q", tb.Name(a), tb.Name(b))
	}
	if id, ok := tb.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = %d,%v", id, ok)
	}
	if _, ok := tb.Lookup("gamma"); ok {
		t.Error("Lookup of unknown string succeeded")
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
	names := tb.Names()
	if len(names) != 2 || names[a] != "alpha" || names[b] != "beta" {
		t.Errorf("Names snapshot = %v", names)
	}

	// A seeded table holds its names at their positions; interning a
	// seeded name does not grow it, and a new name continues at id n
	// without writing into the caller's slice.
	seed := append(make([]string, 0, 8), "delta", "alpha", "gamma")
	st := NewTableOf(seed)
	for i, s := range seed {
		if id := st.ID(s); id != uint32(i) || st.Name(id) != s {
			t.Errorf("seeded ID(%q) = %d, want %d", s, id, i)
		}
		if id, ok := st.Lookup(s); !ok || id != uint32(i) {
			t.Errorf("seeded Lookup(%q) = %d,%v", s, id, ok)
		}
	}
	if st.Len() != len(seed) {
		t.Errorf("seeded Len = %d after re-interning the seed, want %d", st.Len(), len(seed))
	}
	if id := st.ID("beta"); id != 3 || st.ID("beta") != 3 || st.Name(3) != "beta" || st.Len() != 4 {
		t.Errorf("new name after a seed of 3 got id %d, Len %d", id, st.Len())
	}
	if seed[:4][3] != "" {
		t.Error("interning past the seed wrote into the caller's slice")
	}
}

// Ids stay dense and consistent under concurrent interning of an
// overlapping key set — the stream-shard workload — on an empty table
// and on one seeded with the first half of the keys, which keep their
// seeded ids.
func TestTableConcurrent(t *testing.T) {
	const goroutines, keys = 8, 200
	seed := make([]string, keys/2)
	for k := range seed {
		seed[k] = fmt.Sprintf("key-%d", k)
	}
	concurrentIDs(t, NewTable(), goroutines, keys)
	tb := NewTableOf(seed)
	concurrentIDs(t, tb, goroutines, keys)
	for k, s := range seed {
		if id, _ := tb.Lookup(s); id != uint32(k) {
			t.Fatalf("seeded key %d moved to id %d", k, id)
		}
	}
}

// concurrentIDs interns key-0 … key-(keys-1) from every goroutine at once
// and checks all of them got the same dense ids.
func concurrentIDs(t *testing.T, tb *Table, goroutines, keys int) {
	t.Helper()
	var wg sync.WaitGroup
	got := make([][]uint32, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]uint32, keys)
			for k := 0; k < keys; k++ {
				ids[k] = tb.ID(fmt.Sprintf("key-%d", k))
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()
	if tb.Len() != keys {
		t.Fatalf("Len = %d, want %d", tb.Len(), keys)
	}
	for g := 1; g < goroutines; g++ {
		for k := 0; k < keys; k++ {
			if got[g][k] != got[0][k] {
				t.Fatalf("goroutine %d got id %d for key %d, goroutine 0 got %d",
					g, got[g][k], k, got[0][k])
			}
		}
	}
	seen := make(map[uint32]bool)
	for k := 0; k < keys; k++ {
		id, ok := tb.Lookup(fmt.Sprintf("key-%d", k))
		if !ok || seen[id] || int(id) >= keys {
			t.Fatalf("key %d: id=%d ok=%v dup=%v", k, id, ok, seen[id])
		}
		seen[id] = true
	}
}
