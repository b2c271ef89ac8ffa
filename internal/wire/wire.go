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
// trace.Symbols by seeding its tables (intern.NewTableOf): a validated
// dictionary is sorted and distinct, so position p becomes id p, and the
// index is rebuilt on those ids.
//
// Both encoders build an index's sorted form — per count list the sorted
// (record, feature position, count) cells — for one writer: EncodeIndex
// from a trace.Index's maps, EncodeLogs from run logs (trace.Log), so a
// node that only ships windows never builds a map.
//
// Because dictionaries, servers and count lists are sorted, and a
// dictionary holds only names something references, encoding is
// canonical: two indexes describing the same traffic aggregate encode to
// identical bytes regardless of how their symbol tables assigned ids, and
// encode(decode(b)) == b for every b a decoder accepts (fuzz-tested). So
// encodings merge without decoding: MergeIndexes unions the sorted
// dictionaries and merges server records in one ordered walk into exactly
// EncodeIndex of the merged index. A decoded Fragment keeps its index as
// validated bytes (Payload); cluster tiers merge those, and only the
// detecting root decodes, once per window.
//
// Layout (all integers unsigned LEB128 varints unless noted):
//
//	magic "SMWF" | version | fields mask (trace.Fields) | requestCount
//	4+k × namespace dictionary: count, then count × (len, bytes)
//	   (order: servers, clients, ips, files, then the k optional fields
//	   the mask holds, of agents, queries, payloads)
//	serverCount, then per server (sorted by key):
//	   serverDictID | requests | errorRequests
//	   4+k × counts list: n, then n × (dictID, count), sorted by dictID
//	   (order: clients, ips, files, referrers, then the k optional ones)
//
// The index keeps clients per server only, so the wire does too: a
// window's distinct clients are its clients dictionary.
//
// A Fragment wraps an encoded index with the routing envelope the cluster
// layer needs: source node, epoch-derived window id, window bounds, and
// the end-of-stream marker. Since envelope version 2 a fragment also
// carries a trailing hop-provenance section — self-delimiting records,
// one per transit, read until the buffer ends — which relays extend with
// AppendHop without re-encoding the payload.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"smash/internal/intern"
	"smash/internal/trace"
)

// Version is the index codec version; decoders accept no other. Version
// 2 added the fields mask; version 3 dropped the client rows, the
// transpose of the servers' client lists.
const Version = 3

// FragmentVersion is the fragment envelope version; decoders accept no
// other. Version 2 added the trailing hop-provenance section.
const FragmentVersion = 2

var magic = [4]byte{'S', 'M', 'W', 'F'}

// ErrCorrupt wraps all decode failures caused by malformed input.
var ErrCorrupt = errors.New("wire: corrupt data")

// namespace indexes into the fixed dictionary array. The optional ones
// follow the base four in trace.Fields bit order.
const (
	nsServers = iota
	nsClients
	nsIPs
	nsFiles
	nsAgents
	nsQueries
	nsPayloads
	nsCount
)

// onWire lists the namespaces, and so (see listNS) the server lists, an
// index of fields mask carries: the base four, then each optional one.
func onWire(mask trace.Fields) []int {
	out := []int{nsServers, nsClients, nsIPs, nsFiles}
	for ns := nsAgents; ns < nsCount; ns++ {
		if mask&(1<<(ns-nsAgents)) != 0 {
			out = append(out, ns)
		}
	}
	return out
}

// reader walks an encoded buffer with bounds checking.
type reader struct {
	b   []byte
	off int
}

// uvarint reads a varint in its one minimal form: an overlong one (a
// last byte of 0 after the first) would decode to a value that encodes
// to other bytes, so encode(decode(b)) == b could not hold.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		return 0, fmt.Errorf("truncated or overlong varint at %d: %w", r.off, ErrCorrupt)
	}
	r.off += n
	return v, nil
}

// varint reads a zig-zag signed varint (binary.AppendVarint).
func (r *reader) varint() (int64, error) {
	u, err := r.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
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

// entry is one count-list element: a dictionary position and its count.
type entry struct{ pos, n uint32 }

// listNS is the namespace of each of a server record's count lists, in
// wire order; onWire says which are on the wire.
var listNS = [7]int{nsClients, nsIPs, nsFiles, nsServers, nsAgents, nsQueries, nsPayloads}

// scanner walks one index encoding record by record and refuses every
// shape EncodeIndex cannot produce: unsorted or repeated names, records or
// list entries, positions out of range, zero or over-wide counts, totals
// that disagree, and a dictionary name nothing references. DecodeIndex,
// DecodeFragment and MergeIndexes all read through it.
type scanner struct {
	reader
	mask     trace.Fields
	wired    []int // onWire(mask)
	requests int
	dicts    [nsCount][][]byte // sorted names, aliasing the input
	used     [nsCount][]bool
	left     int    // server records left
	last     int64  // the previous server record's position
	total    uint64 // requests summed over the servers read

	// The server record next read: its position, request and error
	// counts, and lists.
	pos        uint32
	reqs, errs int
	lists      [len(listNS)][]entry
}

// header reads the magic, version, fields mask, request count,
// dictionaries and server count.
func (s *scanner) header() (err error) {
	if !bytes.HasPrefix(s.b[s.off:], magic[:]) {
		return fmt.Errorf("bad magic: %w", ErrCorrupt)
	}
	s.off += len(magic)
	v, err := s.uvarint()
	if err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("wire: unsupported index version %d (want %d)", v, Version)
	}
	mask, err := s.uvarint()
	if err != nil {
		return err
	}
	if mask&^uint64(trace.AllFields) != 0 {
		return fmt.Errorf("unknown fields mask %#x: %w", mask, ErrCorrupt)
	}
	s.mask, s.wired = trace.Fields(mask), onWire(trace.Fields(mask))
	if s.requests, err = s.scalar(); err != nil {
		return err
	}
	for _, ns := range s.wired {
		n, err := s.length(1)
		if err != nil {
			return err
		}
		d := make([][]byte, n)
		for i := range d {
			l, err := s.length(1)
			if err != nil {
				return err
			}
			d[i], s.off = s.b[s.off:s.off+l], s.off+l
			if i > 0 && string(d[i]) <= string(d[i-1]) {
				return fmt.Errorf("dictionary not sorted: %w", ErrCorrupt)
			}
		}
		s.dicts[ns], s.used[ns] = d, make([]bool, n)
	}
	s.last = -1
	s.left, err = s.length(3)
	return err
}

// list reads one count list of namespace ns into dst and sums its counts.
func (s *scanner) list(ns int, dst []entry) ([]entry, uint64, error) {
	n, err := s.length(2)
	dst, used, sum := dst[:0], s.used[ns], uint64(0)
	for i := 0; i < n && err == nil; i++ {
		var pos, c uint64
		if pos, err = s.uvarint(); err == nil {
			c, err = s.uvarint()
		}
		switch {
		case err != nil:
		case pos >= uint64(len(used)) || i > 0 && uint32(pos) <= dst[i-1].pos:
			err = fmt.Errorf("count list position %d out of range or order: %w", pos, ErrCorrupt)
		case c == 0 || c > math.MaxUint32:
			err = fmt.Errorf("count %d out of range: %w", c, ErrCorrupt)
		default:
			used[pos] = true
			dst, sum = append(dst, entry{uint32(pos), uint32(c)}), sum+c
		}
	}
	return dst, sum, err
}

// next reads the next server record and reports false once the index
// has ended.
func (s *scanner) next() (bool, error) {
	if s.left == 0 {
		// Every index Add/Merge builds keeps its totals consistent — the
		// header count is the servers' sum, a server's count its clients'
		// sum — and the receiver gates detection on the header, so a
		// fragment that breaks either is refused rather than silently
		// skipped as an empty window.
		if s.total != uint64(s.requests) {
			return false, fmt.Errorf("header counts %d requests, servers sum to %d: %w", s.requests, s.total, ErrCorrupt)
		}
		for ns, used := range s.used {
			if i := slices.Index(used, false); i >= 0 {
				return false, fmt.Errorf("dictionary name %q unreferenced: %w", s.dicts[ns][i], ErrCorrupt)
			}
		}
		return false, nil
	}
	s.left--
	pos, err := s.uvarint()
	if err != nil {
		return false, err
	}
	if pos >= uint64(len(s.dicts[nsServers])) || int64(pos) <= s.last {
		return false, fmt.Errorf("record position %d out of range or order: %w", pos, ErrCorrupt)
	}
	s.last, s.pos, s.used[nsServers][pos] = int64(pos), uint32(pos), true
	if s.reqs, err = s.scalar(); err == nil {
		s.errs, err = s.scalar()
	}
	var byClient, sum uint64
	for i := 0; i < len(s.wired) && err == nil; i++ {
		f := s.wired[i]
		if s.lists[f], sum, err = s.list(listNS[f], s.lists[f]); f == 0 {
			byClient = sum
		}
	}
	if err != nil {
		return false, err
	}
	if byClient != uint64(s.reqs) || s.errs > s.reqs {
		return false, fmt.Errorf("server %q: %d requests, %d by client, %d errors: %w", s.dicts[nsServers][pos], s.reqs, byClient, s.errs, ErrCorrupt)
	}
	s.total += uint64(s.reqs)
	return true, nil
}

// DecodeIndex rebuilds an index (with fresh Symbols and the encoded
// fields) from EncodeIndex output. The result is safe to Merge into any
// other index of its fields — ids remap through their names.
func DecodeIndex(data []byte) (*trace.Index, error) {
	s := &scanner{reader: reader{b: data}}
	if err := s.header(); err != nil {
		return nil, err
	}
	// A validated dictionary is sorted and distinct, so its positions are
	// the dense ids of a table seeded with it.
	var tables [nsCount]*intern.Table
	for ns, d := range s.dicts {
		names := make([]string, len(d))
		for i, name := range d {
			names[i] = string(name)
		}
		tables[ns] = intern.NewTableOf(names)
	}
	sy := &trace.Symbols{Servers: tables[nsServers], Clients: tables[nsClients], IPs: tables[nsIPs], Files: tables[nsFiles],
		Agents: tables[nsAgents], Queries: tables[nsQueries], Payloads: tables[nsPayloads]}
	counts := func(l []entry) trace.Counts {
		m := make(trace.Counts, len(l))
		for _, e := range l {
			m[e.pos] = e.n
		}
		return m
	}
	idx := trace.NewIndexOf(sy, s.mask)
	ok, err := s.next()
	for ; ok; ok, err = s.next() {
		info := &trace.ServerInfo{Key: sy.Servers.Name(s.pos), SID: s.pos, Requests: s.reqs, ErrorRequests: s.errs}
		dsts := [len(listNS)]*trace.Counts{&info.Clients, &info.IPs, &info.Files,
			&info.Referrers, &info.UserAgents, &info.Queries, &info.Payloads}
		for _, f := range s.wired {
			*dsts[f] = counts(s.lists[f])
		}
		idx.PutServer(info)
	}
	if err != nil {
		return nil, err
	}
	if s.off != len(data) {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(data)-s.off, ErrCorrupt)
	}
	idx.RequestCount = s.requests
	return idx, nil
}

// IndexRequests returns the request count in a validated index encoding's
// header, such as a decoded Fragment's Payload, or 0 if it has none.
func IndexRequests(enc []byte) int {
	// A validated header's version and fields mask are one byte each.
	r := &reader{b: enc, off: min(len(magic)+2, len(enc))}
	n, _ := r.scalar() // 0 on error
	return n
}

// MergeIndexes returns EncodeIndex of the index that decoding every
// encoding and merging them would build, without building it: the
// dictionaries are unioned into monotone position maps, then server
// records and their count lists merge in one ordered walk.
// Every input is validated as DecodeIndex validates it; inputs of
// different fields masks and a merged count too wide for the wire are
// errors, never a union or a wrapped value. No inputs encode the empty
// index.
func MergeIndexes(encs [][]byte) ([]byte, error) {
	scs := make([]scanner, len(encs))
	size, requests := 64, 0
	var mask trace.Fields
	for i := range scs {
		scs[i].b = encs[i]
		if err := scs[i].header(); err != nil {
			return nil, err
		}
		if i > 0 && scs[i].mask != mask {
			return nil, fmt.Errorf("wire: merge of fields masks %#x and %#x", mask, scs[i].mask)
		}
		mask, size, requests = scs[i].mask, size+len(encs[i]), requests+scs[i].requests
	}
	if requests > math.MaxInt32 {
		return nil, fmt.Errorf("wire: merged request count %d out of range", requests)
	}
	wired := onWire(mask)
	out := append(make([]byte, 0, size), magic[:]...)
	out = binary.AppendUvarint(binary.AppendUvarint(out, Version), uint64(mask))
	out = binary.AppendUvarint(out, uint64(requests))

	// remap[i][ns][pos] is input i's name pos in the union; both are
	// sorted, so the map is monotone and a remapped section stays sorted.
	// (Names alias the inputs, so none is nil.)
	remap := make([][nsCount][]uint32, len(scs))
	cur := make([]int, len(scs))
	var names [][]byte
	for _, ns := range wired {
		for i := range scs {
			remap[i][ns], cur[i] = make([]uint32, len(scs[i].dicts[ns])), 0
		}
		for names = names[:0]; ; {
			var least []byte
			for i := range scs {
				if d := scs[i].dicts[ns]; cur[i] < len(d) && (least == nil || string(d[cur[i]]) < string(least)) {
					least = d[cur[i]]
				}
			}
			if least == nil {
				break
			}
			for i := range scs {
				if d := scs[i].dicts[ns]; cur[i] < len(d) && string(d[cur[i]]) == string(least) {
					remap[i][ns][cur[i]] = uint32(len(names))
					cur[i]++
				}
			}
			names = append(names, least)
		}
		out = binary.AppendUvarint(out, uint64(len(names)))
		for _, n := range names {
			out = append(binary.AppendUvarint(out, uint64(len(n))), n...)
		}
	}

	live := make([]bool, len(scs))
	for i := range scs {
		var err error
		if live[i], err = scs[i].next(); err != nil {
			return nil, err
		}
	}
	var from []int
	var acc, tmp []entry
	start, records := len(out), 0
	for ; ; records++ {
		// The inputs whose current server is the least in the union.
		from = from[:0]
		var least uint32
		for i := range scs {
			if !live[i] {
				continue
			}
			if pos := remap[i][nsServers][scs[i].pos]; len(from) == 0 || pos < least {
				from, least = append(from[:0], i), pos
			} else if pos == least {
				from = append(from, i)
			}
		}
		if len(from) == 0 {
			break
		}
		reqs, errs := 0, 0
		for _, i := range from {
			reqs, errs = reqs+scs[i].reqs, errs+scs[i].errs
		}
		if reqs > math.MaxInt32 {
			return nil, fmt.Errorf("wire: merged request count %d of server %d out of range", reqs, least)
		}
		out = binary.AppendUvarint(out, uint64(least))
		out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(reqs)), uint64(errs))
		for _, f := range wired {
			acc = acc[:0]
			for _, i := range from {
				l, m := scs[i].lists[f], remap[i][listNS[f]]
				for j := range l {
					l[j].pos = m[l[j].pos]
				}
				var err error
				if tmp, err = mergeEntries(tmp, acc, l); err != nil {
					return nil, err
				}
				acc, tmp = tmp, acc
			}
			out = binary.AppendUvarint(out, uint64(len(acc)))
			for _, e := range acc {
				out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(e.pos)), uint64(e.n))
			}
		}
		for _, i := range from {
			var err error
			if live[i], err = scs[i].next(); err != nil {
				return nil, err
			}
		}
	}
	out = slices.Insert(out, start, binary.AppendUvarint(nil, uint64(records))...)
	for i := range scs {
		if scs[i].off != len(encs[i]) {
			return nil, fmt.Errorf("%d trailing bytes: %w", len(encs[i])-scs[i].off, ErrCorrupt)
		}
	}
	return out, nil
}

// mergeEntries writes the sorted union of two sorted count lists to dst,
// summing the counts of a position both hold.
func mergeEntries(dst, a, b []entry) ([]entry, error) {
	dst = dst[:0]
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].pos < b[0].pos:
			dst, a = append(dst, a[0]), a[1:]
		case a[0].pos > b[0].pos:
			dst, b = append(dst, b[0]), b[1:]
		case uint64(a[0].n)+uint64(b[0].n) > math.MaxUint32:
			return nil, fmt.Errorf("wire: merged count %d out of range", uint64(a[0].n)+uint64(b[0].n))
		default:
			dst, a, b = append(dst, entry{a[0].pos, a[0].n + b[0].n}), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...), nil
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
	// Index is the node's partial traffic aggregate for the window, as a
	// sender builds it; nil on Final markers.
	Index *trace.Index
	// Payload is the same aggregate in canonical wire form. DecodeFragment
	// sets it, validated and copied out of its input, instead of Index;
	// EncodeFragment writes it verbatim when set.
	Payload []byte
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
	b := make([]byte, 0, 1<<12+len(f.Payload))
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
	if f.Index != nil || f.Payload != nil {
		flags |= flagHasIndex
	}
	b = append(b, flags)
	if f.Payload != nil {
		b = append(b, f.Payload...)
	} else if f.Index != nil {
		b = append(b, EncodeIndex(f.Index)...)
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

// DecodeFragment parses EncodeFragment output. The index section is
// validated in full and kept as bytes in Payload, a copy that never
// aliases data.
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
	if v != FragmentVersion {
		return nil, fmt.Errorf("wire: unsupported fragment version %d (want %d)", v, FragmentVersion)
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
		s := &scanner{reader: reader{b: r.b[r.off:]}}
		err := s.header()
		for ok := err == nil; ok; ok, err = s.next() {
		}
		if err != nil {
			return nil, err
		}
		f.Payload = bytes.Clone(s.b[:s.off])
		r.off += s.off
	}
	// Hop records run to the end of the buffer.
	for r.off < len(r.b) {
		h, err := decodeHop(r)
		if err != nil {
			return nil, err
		}
		f.Hops = append(f.Hops, h)
	}
	return f, nil
}
