// Package intern provides string interning: a Table maps each distinct
// string to a dense uint32 id assigned at first sight, and back. The data
// plane interns every hot key (server, client, IP, URI file, ...) once at
// ingest so that downstream aggregation, merging and similarity mining
// operate on integer ids — integer map operations hash a single word where
// string maps re-hash the whole key on every touch.
//
// Tables are safe for concurrent use and optimized for the read-mostly
// workload of a long-running stream: after warm-up almost every key repeats,
// so ID hits and Name lookups take no locks at all. Ids are assigned in
// first-intern order and are therefore NOT stable across runs or shards —
// they must never leak into output ordering; anything user-visible sorts by
// name (see DESIGN.md "Performance").
//
// NewTableOf seeds a table with distinct names at ids 0..n-1 in one pass,
// as the wire decoder does with a validated dictionary; later interns
// continue at id n.
package intern

import (
	"sync"
	"sync/atomic"
)

// Table interns strings to dense uint32 ids.
type Table struct {
	seed map[string]uint32 // NewTableOf's names; read-only after construction
	ids  sync.Map          // string -> uint32, for names past the seed; read first
	mu   sync.Mutex
	// names is the id -> string mapping. The slice header is republished
	// atomically on every append; entries below the published length are
	// immutable, so readers index the loaded snapshot without locking.
	names atomic.Value // []string
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{}
	t.names.Store([]string(nil))
	return t
}

// NewTableOf returns a table holding names at ids 0..len(names)-1. The
// names must be distinct (a wire dictionary is: its scanner refuses
// repeats); the table keeps the slice, which the caller must not modify.
func NewTableOf(names []string) *Table {
	t := &Table{seed: make(map[string]uint32, len(names))}
	for i, s := range names {
		t.seed[s] = uint32(i)
	}
	t.names.Store(names[:len(names):len(names)])
	return t
}

// ID interns s and returns its id. The first call for a given string
// assigns the next dense id; later calls are lock-free lookups.
func (t *Table) ID(s string) uint32 {
	if v, ok := t.ids.Load(s); ok {
		return v.(uint32)
	}
	if id, ok := t.seed[s]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-check under the lock: another goroutine may have interned s
	// between the Load miss and the Lock.
	if v, ok := t.ids.Load(s); ok {
		return v.(uint32)
	}
	names := t.names.Load().([]string)
	id := uint32(len(names))
	t.names.Store(append(names, s))
	t.ids.Store(s, id)
	return id
}

// Lookup returns the id of s without interning it.
func (t *Table) Lookup(s string) (uint32, bool) {
	if v, ok := t.ids.Load(s); ok {
		return v.(uint32), true
	}
	id, ok := t.seed[s]
	return id, ok
}

// Name returns the string with the given id. It panics if id was never
// assigned, mirroring slice indexing.
func (t *Table) Name(id uint32) string {
	return t.names.Load().([]string)[id]
}

// Names returns a point-in-time snapshot of the id -> string mapping:
// Names()[id] is valid for every id assigned before the call. The returned
// slice must not be modified.
func (t *Table) Names() []string {
	return t.names.Load().([]string)
}

// Len reports how many strings have been interned.
func (t *Table) Len() int {
	return len(t.names.Load().([]string))
}
