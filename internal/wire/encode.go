package wire

import (
	"cmp"
	"encoding/binary"
	"maps"
	"math/bits"
	"slices"
	"strings"

	"smash/internal/intern"
	"smash/internal/trace"
)

// dicts fills x's dictionaries with the ids of sy that walk marks: per
// namespace the names, sorted — which makes the encoding canonical — and
// each marked id's position in them, in an array dense by id.
func (x *sortedIndex) dicts(sy *trace.Symbols, walk func(mark func(ns int, id uint32))) {
	tables := [nsCount]*intern.Table{sy.Servers, sy.Clients, sy.IPs, sy.Files, sy.Agents, sy.Queries, sy.Payloads}
	for ns, t := range tables {
		x.pos[ns] = make([]uint32, t.Len())
	}
	walk(func(ns int, id uint32) { x.pos[ns][id] = 1 })
	for ns, t := range tables {
		all, ids := t.Names(), []uint32(nil)
		for id, used := range x.pos[ns] {
			if used != 0 {
				ids = append(ids, uint32(id))
			}
		}
		slices.SortFunc(ids, func(a, b uint32) int { return strings.Compare(all[a], all[b]) })
		x.names[ns] = make([]string, len(ids))
		for p, id := range ids {
			x.names[ns][p], x.pos[ns][id] = all[id], uint32(p)
		}
	}
}

// cell is one count-list element and the position of its server record:
// row, column position, count.
type cell struct{ row, col, n uint32 }

// record is a server record's header.
type record struct {
	pos        uint32
	reqs, errs int
}

// sortedIndex is an index in wire order, what both encoders build for
// append, the one writer: dictionaries, server records, and each list's
// cells by (server, feature) position.
type sortedIndex struct {
	mask     trace.Fields
	requests int
	names    [nsCount][]string
	pos      [nsCount][]uint32
	servers  []record
	lists    [len(listNS)][]cell
}

// append appends the canonical encoding of x to b.
func (x *sortedIndex) append(b []byte) []byte {
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(binary.AppendUvarint(b, Version), uint64(x.mask))
	b = binary.AppendUvarint(b, uint64(x.requests))
	wired := onWire(x.mask)
	for _, ns := range wired {
		b = binary.AppendUvarint(b, uint64(len(x.names[ns])))
		for _, n := range x.names[ns] {
			b = append(binary.AppendUvarint(b, uint64(len(n))), n...)
		}
	}
	lists := x.lists
	b = binary.AppendUvarint(b, uint64(len(x.servers)))
	for _, s := range x.servers {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(s.pos)), uint64(s.reqs))
		b = binary.AppendUvarint(b, uint64(s.errs))
		for _, f := range wired {
			b, lists[f] = appendCells(b, lists[f], s.pos)
		}
	}
	return b
}

// appendCells writes the leading cells of row as one count list and
// returns the cells after them.
func appendCells(b []byte, cells []cell, row uint32) ([]byte, []cell) {
	n := 0
	for n < len(cells) && cells[n].row == row {
		n++
	}
	b = binary.AppendUvarint(b, uint64(n))
	for _, c := range cells[:n] {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(c.col)), uint64(c.n))
	}
	return b, cells[n:]
}

// EncodeIndex serializes idx into the canonical wire form.
func EncodeIndex(idx *trace.Index) []byte {
	x := sortedIndex{mask: idx.Fields(), requests: idx.RequestCount}
	x.dicts(idx.Syms, func(mark func(int, uint32)) {
		for _, s := range idx.Servers {
			mark(nsServers, s.SID)
			for f, m := range serverLists(s) {
				for id := range m {
					mark(listNS[f], id)
				}
			}
		}
	})
	sp := x.pos[nsServers]
	for _, s := range slices.SortedFunc(maps.Values(idx.Servers), func(s, t *trace.ServerInfo) int { return cmp.Compare(sp[s.SID], sp[t.SID]) }) {
		x.servers = append(x.servers, record{sp[s.SID], s.Requests, s.ErrorRequests})
		for f, m := range serverLists(s) {
			x.lists[f] = appendCounts(x.lists[f], sp[s.SID], m, x.pos[listNS[f]])
		}
	}
	return x.append(nil)
}

// appendCounts appends m's counts as cells of row, sorted by the column
// positions pos gives their ids.
func appendCounts(cells []cell, row uint32, m trace.Counts, pos []uint32) []cell {
	start := len(cells)
	for id, n := range m {
		cells = append(cells, cell{row, pos[id], n})
	}
	slices.SortFunc(cells[start:], func(a, b cell) int { return cmp.Compare(a.col, b.col) })
	return cells
}

// serverLists returns a server's count lists in wire order, the
// namespaces of listNS; an absent field's list is nil.
func serverLists(s *trace.ServerInfo) [len(listNS)]trace.Counts {
	return [len(listNS)]trace.Counts{s.Clients, s.IPs, s.Files, s.Referrers, s.UserAgents, s.Queries, s.Payloads}
}

// EncodeLogs returns EncodeIndex of the index the logs describe without
// building it: each count list's (server, feature) position pairs are
// packed into integer keys, sorted and run-length counted. The logs, at
// least one, must share one Symbols epoch and Fields.
func EncodeLogs(logs ...*trace.Log) []byte {
	sy, mask := logs[0].Syms, logs[0].Fields
	x := sortedIndex{mask: mask}
	x.dicts(sy, func(mark func(int, uint32)) {
		for _, l := range logs {
			if l.Syms != sy || l.Fields != mask {
				panic("wire: EncodeLogs of logs of different symbol epochs or fields")
			}
			for i := range l.Entries {
				mark(nsServers, l.Entries[i].Server)
				for f, id := range l.Entries[i].IDs {
					if id != trace.None {
						mark(listNS[f], id)
					}
				}
			}
			x.requests += len(l.Entries)
		}
	})
	sp := x.pos[nsServers]
	recs := make([]record, len(x.names[nsServers]))
	for _, l := range logs {
		for i := range l.Entries {
			r := &recs[sp[l.Entries[i].Server]]
			r.pos, r.reqs = sp[l.Entries[i].Server], r.reqs+1
			if l.Entries[i].Error {
				r.errs++
			}
		}
	}
	x.servers = slices.DeleteFunc(recs, func(r record) bool { return r.reqs == 0 }) // referrers only
	keys, buf := make([]uint64, 0, x.requests), make([]uint64, x.requests)
	for _, f := range onWire(mask) {
		pos, shift := x.pos[listNS[f]], bits.Len(uint(len(x.names[listNS[f]])))
		keys = keys[:0]
		for _, l := range logs {
			for i := range l.Entries {
				if id := l.Entries[i].IDs[f]; id != trace.None {
					keys = append(keys, uint64(sp[l.Entries[i].Server])<<shift|uint64(pos[id]))
				}
			}
		}
		sortKeys(keys, buf, shift+bits.Len(uint(len(x.names[nsServers]))))
		x.lists[f] = runs(keys, shift)
	}
	return x.append(make([]byte, 0, 64+12*x.requests)) // ~8 B/event on the bench world
}

// sortKeys sorts keys of width bits by least-significant-digit radix
// sort, one pass per byte, through buf, scratch at least as long.
func sortKeys(keys, buf []uint64, width int) {
	src, dst := keys, buf[:len(keys)]
	for s := 0; s < width; s += 8 {
		var at [256]int
		for _, k := range src {
			at[byte(k>>s)]++
		}
		for d, sum := 0, 0; d < len(at); d++ {
			at[d], sum = sum, sum+at[d]
		}
		for _, k := range src {
			dst[at[byte(k>>s)]] = k
			at[byte(k>>s)]++
		}
		src, dst = dst, src
	}
	copy(keys, src)
}

// runs run-length counts sorted keys, each a row position shifted left
// by shift over a column position, into cells.
func runs(keys []uint64, shift int) (cells []cell) {
	for i, j := 0, 0; i < len(keys); i = j {
		for j = i + 1; j < len(keys) && keys[j] == keys[i]; j++ {
		}
		cells = append(cells, cell{uint32(keys[i] >> shift), uint32(keys[i] & (1<<shift - 1)), uint32(j - i)})
	}
	return cells
}
