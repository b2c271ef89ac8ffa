package wire

import (
	"encoding/binary"
	"sort"

	"smash/internal/intern"
	"smash/internal/trace"
)

// referenceEncodeIndex is EncodeIndex by maps, kept as the oracle for the
// map-free encoder: per namespace a used-id set, a name index and an
// id -> position map, and every count list sorted by position.
func referenceEncodeIndex(idx *trace.Index) []byte {
	sy := idx.Syms
	tables := [nsCount]*intern.Table{sy.Servers, sy.Clients, sy.IPs, sy.Files, sy.Agents, sy.Queries, sy.Payloads}
	var used [nsCount]map[uint32]struct{}
	for ns := range used {
		used[ns] = map[uint32]struct{}{}
	}
	add := func(ns int, m trace.Counts) {
		for id := range m {
			used[ns][id] = struct{}{}
		}
	}
	keys := idx.Nodes().Names
	for _, k := range keys {
		s := idx.Servers[k]
		used[nsServers][s.SID] = struct{}{}
		add(nsClients, s.Clients)
		add(nsIPs, s.IPs)
		add(nsFiles, s.Files)
		add(nsServers, s.Referrers)
		add(nsAgents, s.UserAgents)
		add(nsQueries, s.Queries)
		add(nsPayloads, s.Payloads)
	}
	var dicts [nsCount][]string
	var pos [nsCount]map[uint32]uint32
	for ns, t := range tables {
		names := t.Names()
		for id := range used[ns] {
			dicts[ns] = append(dicts[ns], names[id])
		}
		sort.Strings(dicts[ns])
		index := make(map[string]uint32, len(dicts[ns]))
		for i, n := range dicts[ns] {
			index[n] = uint32(i)
		}
		pos[ns] = make(map[uint32]uint32, len(used[ns]))
		for id := range used[ns] {
			pos[ns][id] = index[names[id]]
		}
	}

	mask := idx.Fields()
	b := append([]byte(nil), magic[:]...)
	b = binary.AppendUvarint(b, Version)
	b = binary.AppendUvarint(b, uint64(mask))
	b = binary.AppendUvarint(b, uint64(idx.RequestCount))
	optional := map[int]trace.Fields{nsAgents: trace.FieldAgents, nsQueries: trace.FieldQueries, nsPayloads: trace.FieldPayloads}
	for ns, d := range dicts {
		if f, ok := optional[ns]; ok && mask&f == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(d)))
		for _, n := range d {
			b = binary.AppendUvarint(b, uint64(len(n)))
			b = append(b, n...)
		}
	}
	appendCounts := func(b []byte, ns int, m trace.Counts) []byte {
		pairs := make([][2]uint32, 0, len(m))
		for id, n := range m {
			pairs = append(pairs, [2]uint32{pos[ns][id], n})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
		b = binary.AppendUvarint(b, uint64(len(pairs)))
		for _, p := range pairs {
			b = binary.AppendUvarint(b, uint64(p[0]))
			b = binary.AppendUvarint(b, uint64(p[1]))
		}
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		s := idx.Servers[k]
		b = binary.AppendUvarint(b, uint64(pos[nsServers][s.SID]))
		b = binary.AppendUvarint(b, uint64(s.Requests))
		b = binary.AppendUvarint(b, uint64(s.ErrorRequests))
		b = appendCounts(b, nsClients, s.Clients)
		b = appendCounts(b, nsIPs, s.IPs)
		b = appendCounts(b, nsFiles, s.Files)
		b = appendCounts(b, nsServers, s.Referrers)
		if mask&trace.FieldAgents != 0 {
			b = appendCounts(b, nsAgents, s.UserAgents)
		}
		if mask&trace.FieldQueries != 0 {
			b = appendCounts(b, nsQueries, s.Queries)
		}
		if mask&trace.FieldPayloads != 0 {
			b = appendCounts(b, nsPayloads, s.Payloads)
		}
	}
	return b
}
