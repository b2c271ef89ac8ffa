// Package wire is SMASH's cluster interchange codec: a versioned,
// length-prefixed binary encoding of trace.Index snapshots that lets
// ingest nodes ship sealed window fragments to an aggregator in another
// process.
//
// Interned ids are process-local (see internal/intern: ids are assigned in
// first-sight order), so an index cannot be shipped as raw id-keyed maps —
// the receiver's tables would resolve the ids to different strings. The
// codec therefore ships each fragment with its own compact symbol
// dictionary: for every namespace it collects exactly the names the
// fragment references, sorts them, and encodes counts keyed by position in
// that sorted dictionary. Decoding interns the dictionary into a fresh
// trace.Symbols (dense ids in dictionary order) and rebuilds the index;
// the aggregator then folds the decoded fragment in through
// trace.Index.Merge's name-remap path.
//
// Because dictionaries and count maps are sorted by name, encoding is
// canonical: two indexes describing the same traffic aggregate encode to
// identical bytes regardless of how their symbol tables assigned ids, and
// encode(decode(b)) == b. Round-trips preserve trace.Index.Fingerprint
// exactly (fuzz-tested, including foreign symbol tables).
//
// Layout (all integers unsigned LEB128 varints unless noted):
//
//	magic "SMWF" | version | requestCount
//	8 × namespace dictionary: count, then count × (len, bytes)
//	   (order: servers, clients, ips, files, agents, queries, payloads, hosts)
//	serverCount, then per server (sorted by key):
//	   serverDictID | requests | errorRequests
//	   8 × counts map: n, then n × (dictID, count), sorted by dictID
//	clientCount, then per client (sorted by name):
//	   clientDictID | n, then n × (serverDictID, count), sorted by dictID
//
// A Fragment wraps an encoded index with the routing envelope the cluster
// layer needs: source node, epoch-derived window id, window bounds, and
// the end-of-stream marker. Since envelope version 2 a fragment also
// carries a trailing hop-provenance section — self-delimiting records,
// one per transit, read until the buffer ends — which relays extend with
// AppendHop without re-encoding the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"smash/internal/intern"
	"smash/internal/trace"
)

// Version is the current index codec version. Decoders reject anything
// newer.
const Version = 1

// FragmentVersion is the current fragment envelope version. Version 2
// added the trailing hop-provenance section; version-1 fragments (no
// hops) still decode. Decoders reject anything newer.
const FragmentVersion = 2

var magic = [4]byte{'S', 'M', 'W', 'F'}

// ErrCorrupt wraps all decode failures caused by malformed input.
var ErrCorrupt = errors.New("wire: corrupt data")

// dict is one namespace's compact dictionary: the names the fragment
// references, sorted, plus the local-id -> dictionary-position mapping
// used while encoding.
type dict struct {
	names []string
	pos   map[uint32]uint32 // local id -> position in names
}

// dictBuilder accumulates the local ids a namespace references.
type dictBuilder struct {
	table *intern.Table
	used  map[uint32]struct{}
}

func (b *dictBuilder) add(m trace.Counts) {
	for id := range m {
		b.used[id] = struct{}{}
	}
}

// build resolves and sorts the used names. Positions are assigned in
// sorted-name order, which is what makes the encoding canonical.
func (b *dictBuilder) build() dict {
	names := b.table.Names()
	d := dict{
		names: make([]string, 0, len(b.used)),
		pos:   make(map[uint32]uint32, len(b.used)),
	}
	for id := range b.used {
		d.names = append(d.names, names[id])
	}
	sort.Strings(d.names)
	index := make(map[string]uint32, len(d.names))
	for i, n := range d.names {
		index[n] = uint32(i)
	}
	for id := range b.used {
		d.pos[id] = index[names[id]]
	}
	return d
}

// namespace indexes into the fixed dictionary array.
const (
	nsServers = iota
	nsClients
	nsIPs
	nsFiles
	nsAgents
	nsQueries
	nsPayloads
	nsHosts
	nsCount
)

// EncodeIndex serializes idx into the canonical wire form.
func EncodeIndex(idx *trace.Index) []byte {
	return appendIndex(make([]byte, 0, 1<<12), idx)
}

// appendIndex appends the canonical encoding of idx to b — the shared
// implementation of EncodeIndex and EncodeFragment, so a fragment's index
// encodes straight into the envelope buffer without an intermediate copy.
func appendIndex(b []byte, idx *trace.Index) []byte {
	sy := idx.Syms
	builders := [nsCount]dictBuilder{
		nsServers:  {table: sy.Servers, used: map[uint32]struct{}{}},
		nsClients:  {table: sy.Clients, used: map[uint32]struct{}{}},
		nsIPs:      {table: sy.IPs, used: map[uint32]struct{}{}},
		nsFiles:    {table: sy.Files, used: map[uint32]struct{}{}},
		nsAgents:   {table: sy.Agents, used: map[uint32]struct{}{}},
		nsQueries:  {table: sy.Queries, used: map[uint32]struct{}{}},
		nsPayloads: {table: sy.Payloads, used: map[uint32]struct{}{}},
		nsHosts:    {table: sy.Hosts, used: map[uint32]struct{}{}},
	}
	keys := idx.ServerKeys()
	for _, k := range keys {
		s := idx.Servers[k]
		builders[nsServers].used[s.SID] = struct{}{}
		builders[nsClients].add(s.Clients)
		builders[nsIPs].add(s.IPs)
		builders[nsFiles].add(s.Files)
		builders[nsServers].add(s.Referrers)
		builders[nsAgents].add(s.UserAgents)
		builders[nsQueries].add(s.Queries)
		builders[nsPayloads].add(s.Payloads)
		builders[nsHosts].add(s.Hosts)
	}
	for c, cs := range idx.ClientServers {
		builders[nsClients].used[c] = struct{}{}
		builders[nsServers].add(cs)
	}
	var dicts [nsCount]dict
	for i := range builders {
		dicts[i] = builders[i].build()
	}

	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, Version)
	b = binary.AppendUvarint(b, uint64(idx.RequestCount))
	for i := range dicts {
		b = binary.AppendUvarint(b, uint64(len(dicts[i].names)))
		for _, n := range dicts[i].names {
			b = binary.AppendUvarint(b, uint64(len(n)))
			b = append(b, n...)
		}
	}
	appendCounts := func(b []byte, d *dict, m trace.Counts) []byte {
		pairs := make([][2]uint32, 0, len(m))
		for id, n := range m {
			pairs = append(pairs, [2]uint32{d.pos[id], n})
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
		b = binary.AppendUvarint(b, uint64(dicts[nsServers].pos[s.SID]))
		b = binary.AppendUvarint(b, uint64(s.Requests))
		b = binary.AppendUvarint(b, uint64(s.ErrorRequests))
		b = appendCounts(b, &dicts[nsClients], s.Clients)
		b = appendCounts(b, &dicts[nsIPs], s.IPs)
		b = appendCounts(b, &dicts[nsFiles], s.Files)
		b = appendCounts(b, &dicts[nsServers], s.Referrers)
		b = appendCounts(b, &dicts[nsAgents], s.UserAgents)
		b = appendCounts(b, &dicts[nsQueries], s.Queries)
		b = appendCounts(b, &dicts[nsPayloads], s.Payloads)
		b = appendCounts(b, &dicts[nsHosts], s.Hosts)
	}
	// Clients sorted by name == sorted by dictionary position.
	clients := make([]uint32, 0, len(idx.ClientServers))
	for c := range idx.ClientServers {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool {
		return dicts[nsClients].pos[clients[i]] < dicts[nsClients].pos[clients[j]]
	})
	b = binary.AppendUvarint(b, uint64(len(clients)))
	for _, c := range clients {
		b = binary.AppendUvarint(b, uint64(dicts[nsClients].pos[c]))
		b = appendCounts(b, &dicts[nsServers], idx.ClientServers[c])
	}
	return b
}

// reader walks an encoded buffer with bounds checking.
type reader struct {
	b   []byte
	off int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at %d: %w", r.off, ErrCorrupt)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at %d: %w", r.off, ErrCorrupt)
	}
	r.off += n
	return v, nil
}

// length reads a collection length and rejects values that could not fit
// in the remaining bytes (each element takes at least min bytes), bounding
// allocation on corrupt input. The comparison stays in uint64 so a
// 64-bit claimed length cannot overflow its way past the check.
func (r *reader) length(min int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)-r.off)/uint64(min) {
		return 0, fmt.Errorf("length %d exceeds remaining input: %w", v, ErrCorrupt)
	}
	return int(v), nil
}

// scalar reads a non-negative scalar counter, bounding it to 32 bits so
// int conversions behave identically on every platform.
func (r *reader) scalar() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<31-1 {
		return 0, fmt.Errorf("scalar %d out of range: %w", v, ErrCorrupt)
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	n, err := r.length(1)
	if err != nil {
		return "", err
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

// counts decodes one count map, translating dictionary positions into the
// decoder's local ids through ids (ids[pos] = local id). Positions must
// be strictly increasing — the canonical form the encoder emits — so
// duplicate entries fail as corruption instead of silently overwriting.
// total is the sum of the map's counts.
func (r *reader) counts(ids []uint32) (m trace.Counts, total uint64, err error) {
	n, err := r.length(2)
	if err != nil {
		return nil, 0, err
	}
	m = make(trace.Counts, n)
	prev := int64(-1)
	for i := 0; i < n; i++ {
		pos, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if pos >= uint64(len(ids)) {
			return nil, 0, fmt.Errorf("dictionary position %d out of range: %w", pos, ErrCorrupt)
		}
		if int64(pos) <= prev {
			return nil, 0, fmt.Errorf("count map not sorted at position %d: %w", pos, ErrCorrupt)
		}
		prev = int64(pos)
		c, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if c == 0 || c > 1<<32-1 {
			return nil, 0, fmt.Errorf("count %d out of range: %w", c, ErrCorrupt)
		}
		m[ids[pos]] = uint32(c)
		total += c
	}
	return m, total, nil
}

// DecodeIndex rebuilds an index (with fresh Symbols) from EncodeIndex
// output. The result is safe to Merge into any other index — ids remap
// through their names.
func DecodeIndex(data []byte) (*trace.Index, error) {
	idx, n, err := decodeIndex(&reader{b: data})
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(data)-n, ErrCorrupt)
	}
	return idx, nil
}

func decodeIndex(r *reader) (*trace.Index, int, error) {
	if len(r.b)-r.off < len(magic) || string(r.b[r.off:r.off+len(magic)]) != string(magic[:]) {
		return nil, 0, fmt.Errorf("bad magic: %w", ErrCorrupt)
	}
	r.off += len(magic)
	v, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if v == 0 || v > Version {
		return nil, 0, fmt.Errorf("wire: unsupported version %d (max %d)", v, Version)
	}
	requests, err := r.scalar()
	if err != nil {
		return nil, 0, err
	}

	sy := trace.NewSymbols()
	tables := [nsCount]*intern.Table{
		nsServers: sy.Servers, nsClients: sy.Clients, nsIPs: sy.IPs,
		nsFiles: sy.Files, nsAgents: sy.Agents, nsQueries: sy.Queries,
		nsPayloads: sy.Payloads, nsHosts: sy.Hosts,
	}
	// ids[ns][pos] is the local id of dictionary entry pos. Fresh tables
	// assign dense ids in intern order, so ids[ns][pos] == pos — but going
	// through the table keeps the decoder honest about that invariant.
	var ids [nsCount][]uint32
	var names [nsCount][]string
	for ns := 0; ns < nsCount; ns++ {
		n, err := r.length(1)
		if err != nil {
			return nil, 0, err
		}
		ids[ns] = make([]uint32, n)
		names[ns] = make([]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			s, err := r.str()
			if err != nil {
				return nil, 0, err
			}
			if i > 0 && s <= prev {
				return nil, 0, fmt.Errorf("dictionary not sorted: %w", ErrCorrupt)
			}
			prev = s
			ids[ns][i] = tables[ns].ID(s)
			names[ns][i] = s
		}
	}

	idx := trace.NewIndexWith(sy)
	nServers, err := r.length(3)
	if err != nil {
		return nil, 0, err
	}
	// Every index Add/Merge builds keeps its totals consistent — the header
	// count is the servers' sum, a server's count its clients' sum — and
	// the receiver gates detection on the header, so a fragment that breaks
	// either is refused rather than silently skipped as an empty window.
	var total uint64
	for i := 0; i < nServers; i++ {
		pos, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if pos >= uint64(len(names[nsServers])) {
			return nil, 0, fmt.Errorf("server position %d out of range: %w", pos, ErrCorrupt)
		}
		key := names[nsServers][pos]
		if _, dup := idx.Servers[key]; dup {
			return nil, 0, fmt.Errorf("duplicate server %q: %w", key, ErrCorrupt)
		}
		info := idx.EnsureServer(key)
		reqs, err := r.scalar()
		if err != nil {
			return nil, 0, err
		}
		errs, err := r.scalar()
		if err != nil {
			return nil, 0, err
		}
		info.Requests, info.ErrorRequests = reqs, errs
		var byClient uint64
		for _, field := range []struct {
			dst *trace.Counts
			ns  int
		}{
			{&info.Clients, nsClients}, {&info.IPs, nsIPs},
			{&info.Files, nsFiles}, {&info.Referrers, nsServers},
			{&info.UserAgents, nsAgents}, {&info.Queries, nsQueries},
			{&info.Payloads, nsPayloads}, {&info.Hosts, nsHosts},
		} {
			m, sum, err := r.counts(ids[field.ns])
			if err != nil {
				return nil, 0, err
			}
			*field.dst = m
			if field.ns == nsClients {
				byClient = sum
			}
		}
		if byClient != uint64(reqs) || errs > reqs {
			return nil, 0, fmt.Errorf("server %q: %d requests, %d by client, %d errors: %w", key, reqs, byClient, errs, ErrCorrupt)
		}
		total += uint64(reqs)
	}
	if total != uint64(requests) {
		return nil, 0, fmt.Errorf("header counts %d requests, servers sum to %d: %w", requests, total, ErrCorrupt)
	}
	nClients, err := r.length(2)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < nClients; i++ {
		pos, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if pos >= uint64(len(ids[nsClients])) {
			return nil, 0, fmt.Errorf("client position %d out of range: %w", pos, ErrCorrupt)
		}
		cid := ids[nsClients][pos]
		if _, dup := idx.ClientServers[cid]; dup {
			return nil, 0, fmt.Errorf("duplicate client entry: %w", ErrCorrupt)
		}
		m, _, err := r.counts(ids[nsServers])
		if err != nil {
			return nil, 0, err
		}
		idx.ClientServers[cid] = m
	}
	idx.RequestCount = requests
	return idx, r.off, nil
}

// Fragment is one window fragment in flight from an ingest node to the
// aggregator.
type Fragment struct {
	// Node names the sending ingest node; the aggregator tracks per-node
	// watermarks and metrics by it.
	Node string
	// Window is the epoch-derived window id: windows start at
	// origin + Window*stride, so every node derives the same id for the
	// same wall-clock window without coordination.
	Window int64
	// Start and End bound the window interval.
	Start, End time.Time
	// Final marks the node's end-of-stream: no fragment with a higher
	// Window will follow. Final fragments carry no index.
	Final bool
	// Index is the node's partial traffic aggregate for the window; nil
	// on Final markers.
	Index *trace.Index
	// Hops is the append-only provenance trail: one record per transit,
	// written by the sender just before each delivery attempt and stamped
	// with the receive time on arrival. A fan-in merger copies its
	// children's hops onto the merged fragment before appending its own,
	// so the root sees the full path. Hops never affect the index payload
	// or window identity — two fragments that differ only in Hops merge
	// identically.
	Hops []Hop
}

// Hop is one transit record in a fragment's provenance trail.
type Hop struct {
	// Node and Role identify the sending process ("ingest", "merge").
	Node, Role string
	// Send is the sender's wall clock just before the delivery attempt;
	// Recv is the receiver's wall clock at accept. Recv-Send estimates
	// transit latency plus inter-node clock skew. Zero times encode as 0.
	Send, Recv time.Time
	// Attempts counts delivery attempts for this transit, 1-based; >1
	// means retries or a spool replay preceded this copy.
	Attempts int
	// SpoolDwell is how long the fragment sat in the sender's durable
	// spool before this attempt; zero when it was never spooled.
	SpoolDwell time.Duration
}

const (
	flagFinal    = 1 << 0
	flagHasIndex = 1 << 1
)

// EncodeFragment serializes the fragment envelope plus its index and hop
// trail.
func EncodeFragment(f *Fragment) []byte {
	b := make([]byte, 0, 1<<12)
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, FragmentVersion)
	b = binary.AppendUvarint(b, uint64(len(f.Node)))
	b = append(b, f.Node...)
	b = binary.AppendVarint(b, f.Window)
	b = binary.AppendVarint(b, f.Start.UnixNano())
	b = binary.AppendVarint(b, f.End.UnixNano())
	var flags byte
	if f.Final {
		flags |= flagFinal
	}
	if f.Index != nil {
		flags |= flagHasIndex
	}
	b = append(b, flags)
	if f.Index != nil {
		b = appendIndex(b, f.Index)
	}
	for i := range f.Hops {
		b = appendHop(b, &f.Hops[i])
	}
	return b
}

// hopTimeNS maps a wall-clock stamp to its wire form: zero times encode
// as 0 so an unset Recv round-trips exactly.
func hopTimeNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func hopTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// appendHop appends one self-delimiting hop record. Hop records trail the
// fragment after the (optional) index; decoders read them until the buffer
// ends, so no count prefix is needed and a relay can extend the trail
// without re-encoding the payload.
func appendHop(b []byte, h *Hop) []byte {
	b = binary.AppendUvarint(b, uint64(len(h.Node)))
	b = append(b, h.Node...)
	b = binary.AppendUvarint(b, uint64(len(h.Role)))
	b = append(b, h.Role...)
	b = binary.AppendVarint(b, hopTimeNS(h.Send))
	b = binary.AppendVarint(b, hopTimeNS(h.Recv))
	b = binary.AppendUvarint(b, uint64(max(h.Attempts, 0)))
	b = binary.AppendUvarint(b, uint64(max(h.SpoolDwell, 0)))
	return b
}

// AppendHop returns encoded (an EncodeFragment result) with one more hop
// record appended. It is a pure byte append — the envelope and index bytes
// are not touched, so relays stamp provenance without paying a re-encode.
func AppendHop(encoded []byte, h Hop) []byte {
	return appendHop(encoded, &h)
}

func decodeHop(r *reader) (Hop, error) {
	var h Hop
	var err error
	if h.Node, err = r.str(); err != nil {
		return h, err
	}
	if h.Role, err = r.str(); err != nil {
		return h, err
	}
	sendNS, err := r.varint()
	if err != nil {
		return h, err
	}
	recvNS, err := r.varint()
	if err != nil {
		return h, err
	}
	h.Send, h.Recv = hopTime(sendNS), hopTime(recvNS)
	if h.Attempts, err = r.scalar(); err != nil {
		return h, err
	}
	dwell, err := r.uvarint()
	if err != nil {
		return h, err
	}
	if dwell > math.MaxInt64 {
		return h, fmt.Errorf("hop dwell %d out of range: %w", dwell, ErrCorrupt)
	}
	h.SpoolDwell = time.Duration(dwell)
	return h, nil
}

// DecodeFragment parses EncodeFragment output.
func DecodeFragment(data []byte) (*Fragment, error) {
	r := &reader{b: data}
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("bad magic: %w", ErrCorrupt)
	}
	r.off = len(magic)
	v, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if v == 0 || v > FragmentVersion {
		return nil, fmt.Errorf("wire: unsupported version %d (max %d)", v, FragmentVersion)
	}
	node, err := r.str()
	if err != nil {
		return nil, err
	}
	window, err := r.varint()
	if err != nil {
		return nil, err
	}
	startNS, err := r.varint()
	if err != nil {
		return nil, err
	}
	endNS, err := r.varint()
	if err != nil {
		return nil, err
	}
	if r.off >= len(r.b) {
		return nil, fmt.Errorf("missing flags: %w", ErrCorrupt)
	}
	flags := r.b[r.off]
	r.off++
	f := &Fragment{
		Node:   node,
		Window: window,
		Start:  time.Unix(0, startNS).UTC(),
		End:    time.Unix(0, endNS).UTC(),
		Final:  flags&flagFinal != 0,
	}
	if flags&flagHasIndex != 0 {
		idx, n, err := decodeIndex(&reader{b: r.b[r.off:]})
		if err != nil {
			return nil, err
		}
		r.off += n
		f.Index = idx
	}
	if v >= 2 {
		// Hop records run to the end of the buffer.
		for r.off < len(r.b) {
			h, err := decodeHop(r)
			if err != nil {
				return nil, err
			}
			f.Hops = append(f.Hops, h)
		}
	} else if r.off != len(r.b) {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(r.b)-r.off, ErrCorrupt)
	}
	return f, nil
}
