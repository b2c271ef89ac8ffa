// Package sparse implements the sparse-matrix substrate the paper cites
// (Buluç & Gilbert) for taming the N² cost of pairwise server similarity.
//
// The set-valued dimensions (client sets, IP sets, URI file sets) are all
// incidence relations: a boolean matrix M with rows = servers and columns =
// features. The pairwise intersection sizes |A∩B| needed by the similarity
// equations are exactly the nonzero entries of M·Mᵀ, which are computed
// row-wise (Gustavson's algorithm) against a dense, pooled accumulator —
// never materializing the dense N×N product and never hashing inside the
// product loop.
//
// Rows are the caller's dense node ids (0..n-1); features are opaque
// uint64 keys — interned symbol ids from the trace data plane, or composed
// ids such as (client<<32|timebucket).
//
// A per-feature fan-out cap skips extremely popular features: a feature
// shared by f rows contributes f(f-1)/2 pairs, so an unbounded hub feature
// (e.g. the URI file "index.html") would dominate cost while carrying almost
// no discriminating signal. The cap plays the same role for features that
// the paper's IDF filter plays for servers.
//
// Incidences are pooled with their scratch buffers (Get/Release): the
// streaming engine builds one per dimension per window, and reuse keeps the
// per-window allocation profile flat. What scales with the number of pairs
// is never stored: the product is streamed row by row.
package sparse

import (
	"slices"
	"sync"
)

// Incidence accumulates a rows×features boolean incidence relation over
// dense integer row ids and uint64 feature keys.
type Incidence struct {
	nRows     int
	featIDs   map[uint64]int32
	featRows  [][]int32 // feature id -> row ids (unsorted until finalize)
	rowFeats  [][]int32 // row id -> feature ids (built by Finalize)
	finalized bool

	// CoOccurrence's scratch, pooled with the incidence.
	counts   []int32 // dense accumulator: partner row -> shared features
	touched  []int32 // the current row's partners
	cursor   []int32 // feature id -> position of the current row in featRows
	skipOff  []int32 // row r's skipped features: skipFeat[skipOff[r]:skipOff[r+1]]
	skipFeat []int32 // per row, the ascending feature ids the cap skipped
}

// NewIncidence returns an empty incidence relation over rows 0..nRows-1.
func NewIncidence(nRows int) *Incidence {
	return &Incidence{nRows: nRows, featIDs: make(map[uint64]int32)}
}

// Reset clears the relation and re-sizes it to nRows rows, retaining
// allocated capacity for reuse (newFeature and Finalize truncate the
// per-feature and per-row lists as they take them back into use).
func (m *Incidence) Reset(nRows int) {
	m.nRows = nRows
	clear(m.featIDs)
	m.featRows = m.featRows[:0]
	m.finalized = false
}

// Rows reports the number of rows.
func (m *Incidence) Rows() int { return m.nRows }

// Features reports the number of distinct features.
func (m *Incidence) Features() int { return len(m.featRows) }

// newFeature assigns the next feature id, reusing a pooled row list where
// one is left from an earlier use.
func (m *Incidence) newFeature() int32 {
	f := int32(len(m.featRows))
	if len(m.featRows) < cap(m.featRows) {
		m.featRows = m.featRows[:len(m.featRows)+1]
		m.featRows[f] = m.featRows[f][:0]
	} else {
		m.featRows = append(m.featRows, nil)
	}
	return f
}

// Set marks (row, feature) as present. Duplicate Set calls for the same pair
// are deduplicated at Finalize time. row must be in [0, Rows()).
func (m *Incidence) Set(row int, feature uint64) {
	f, ok := m.featIDs[feature]
	if !ok {
		f = m.newFeature()
		m.featIDs[feature] = f
	}
	m.featRows[f] = append(m.featRows[f], int32(row))
	m.finalized = false
}

// Finalize sorts and deduplicates the per-feature row lists and builds the
// row-major adjacency the co-occurrence product walks. It is called
// automatically by CoOccurrence.
func (m *Incidence) Finalize() {
	if m.finalized {
		return
	}
	if cap(m.rowFeats) < m.nRows {
		m.rowFeats = append(m.rowFeats[:cap(m.rowFeats)], make([][]int32, m.nRows-cap(m.rowFeats))...)
	}
	m.rowFeats = m.rowFeats[:m.nRows]
	for i := range m.rowFeats {
		m.rowFeats[i] = m.rowFeats[i][:0]
	}
	for f, rows := range m.featRows {
		slices.Sort(rows)
		rows = slices.Compact(rows)
		m.featRows[f] = rows
		for _, r := range rows {
			m.rowFeats[r] = append(m.rowFeats[r], int32(f))
		}
	}
	m.finalized = true
}

// CoOccurrence computes, for every pair of rows sharing at least one
// feature, the number of shared features — i.e. the strictly-upper-triangle
// nonzeros of M·Mᵀ — and streams them row by row: for each row a with at
// least one partner, row receives the partners b > a in ascending order and
// the dense accumulator, in which counts[b] is |a∩b| for exactly those b.
// Rows arrive in ascending order, so the pairs arrive sorted by (a, b).
// Both slices are scratch, valid only until row returns. Features whose
// fan-out exceeds maxFanout are skipped (0 or negative means no cap); what
// they would have added to a pair is available from SharedSkipped.
//
// The product is computed row-wise against a dense accumulator: for each
// row a, the counts of all partners b > a are accumulated by array
// indexing, then swept in sorted order — no hashing, no per-pair allocation
// and no materialized pair list (at window scale that list is megabytes
// which, kept with a pooled incidence, stay resident for good).
func (m *Incidence) CoOccurrence(maxFanout int, row func(a int, partners, counts []int32)) {
	m.Finalize()
	m.indexSkipped(maxFanout)
	m.counts = resized(m.counts, m.nRows)
	counts, touched := m.counts, m.touched[:0]
	// Rows are visited in ascending order and every feature's row list is
	// sorted, so the position of a in featRows[f] is a cursor that only
	// ever advances by one: no search inside the product loop.
	m.cursor = resized(m.cursor, len(m.featRows))
	for a := 0; a < m.nRows; a++ {
		for _, f := range m.rowFeats[a] {
			rows := m.featRows[f]
			if maxFanout > 0 && len(rows) > maxFanout {
				continue
			}
			m.cursor[f]++
			for _, b := range rows[m.cursor[f]:] {
				if counts[b] == 0 {
					touched = append(touched, b)
				}
				counts[b]++
			}
		}
		if len(touched) == 0 {
			continue
		}
		sortPartners(touched, counts)
		row(a, touched, counts)
		for _, b := range touched {
			counts[b] = 0
		}
		touched = touched[:0]
	}
	m.touched = touched
}

// sortPartners orders one row's partners ascending. counts is nonzero for
// exactly those partners, so when they are dense in their id range — the
// rule on a window's file graph — re-collecting them by a sweep of that
// range is cheaper than a comparison sort, and yields the same order.
func sortPartners(touched, counts []int32) {
	lo, hi := touched[0], touched[0]
	for _, b := range touched[1:] {
		lo, hi = min(lo, b), max(hi, b)
	}
	if int(hi-lo) >= sweepFactor*len(touched) {
		slices.Sort(touched)
		return
	}
	// Branch-free: every slot is written, only a partner advances n. n
	// reaches len(touched) exactly at hi, the last partner.
	n := 0
	for b := lo; b <= hi; b++ {
		touched[n] = b
		if counts[b] != 0 {
			n++
		}
	}
}

// sweepFactor is the partner-range width, in multiples of the partner
// count, below which the sweep beats the sort (measured: the sort costs
// 6-12 ns per partner for 16-256 of them, the sweep about 1 ns per slot).
const sweepFactor = 8

// resized returns buf with length n and every element zero, reusing its
// capacity when it suffices.
func resized(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// indexSkipped records, per row, the features the fan-out cap skips, in
// ascending feature order, for SharedSkipped. The cost is one pass over the
// feature list plus the skipped features' rows.
func (m *Incidence) indexSkipped(maxFanout int) {
	skipped := func(rows []int32) bool { return maxFanout > 0 && len(rows) > maxFanout }
	// Counting sort by row. Counted two slots ahead, summed, then used as
	// the fill cursors one slot ahead, off[r] ends as row r's start.
	off := resized(m.skipOff, m.nRows+2)
	for _, rows := range m.featRows {
		if skipped(rows) {
			for _, r := range rows {
				off[r+2]++
			}
		}
	}
	for r := 0; r < m.nRows; r++ {
		off[r+2] += off[r+1]
	}
	m.skipFeat = resized(m.skipFeat, int(off[m.nRows+1]))
	for f, rows := range m.featRows {
		if skipped(rows) {
			for _, r := range rows {
				m.skipFeat[off[r+1]] = int32(f)
				off[r+1]++
			}
		}
	}
	m.skipOff = off
}

// SharedSkipped reports how many features rows a and b share among those
// the last CoOccurrence call skipped for exceeding its fan-out cap, so a
// pair's exact intersection size is its count plus SharedSkipped(a, b). The
// per-row lists are tiny (hub features are few), so this is a short merge
// walk. Valid during and after that call, until the next Set or Reset.
func (m *Incidence) SharedSkipped(a, b int) int {
	x := m.skipFeat[m.skipOff[a]:m.skipOff[a+1]]
	y := m.skipFeat[m.skipOff[b]:m.skipOff[b+1]]
	n := 0
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] == y[j]:
			n++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// SkipsAny reports whether the last CoOccurrence call's fan-out cap skipped
// any of row a's features. When it did not, SharedSkipped(a, b) is 0 for
// every b, so a row scorer can ask once per row instead of once per pair.
// Valid when SharedSkipped is.
func (m *Incidence) SkipsAny(a int) bool { return m.skipOff[a+1] > m.skipOff[a] }

var incPool = sync.Pool{New: func() any { return NewIncidence(0) }}

// Get returns a pooled empty Incidence over nRows rows. Release it when the
// co-occurrence product has been consumed.
func Get(nRows int) *Incidence {
	m := incPool.Get().(*Incidence)
	m.Reset(nRows)
	return m
}

// Release returns the incidence to the pool. The caller must not use it
// afterwards.
func (m *Incidence) Release() { incPool.Put(m) }
