package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"smash/internal/trace"
)

// sampleTrace builds a small but feature-dense trace touching every
// ServerInfo aggregate: hostnames and bare IPs, referrers, queries,
// user agents, payload digests, and error statuses.
func sampleTrace() *trace.Trace {
	base := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	t := &trace.Trace{Name: "wire-sample"}
	for i := 0; i < 40; i++ {
		t.Requests = append(t.Requests, trace.Request{
			Time:      base.Add(time.Duration(i) * time.Minute),
			Client:    fmt.Sprintf("10.0.0.%d", i%5),
			Host:      fmt.Sprintf("site-%d.example.com", i%7),
			ServerIP:  fmt.Sprintf("198.51.100.%d", i%7),
			Path:      fmt.Sprintf("/app/file%d.php", i%3),
			Query:     "id=1&e=x",
			UserAgent: fmt.Sprintf("agent-%d", i%2),
			Referrer:  "portal.example.org",
			Status:    200 + 200*(i%4/3), // every 4th request errors
		})
	}
	for i := 0; i < 10; i++ {
		t.Requests = append(t.Requests, trace.Request{
			Time:          base.Add(time.Hour),
			Client:        "10.0.1.1",
			ServerIP:      "203.0.113.9", // no hostname: IP-keyed server
			Path:          "/",
			PayloadDigest: fmt.Sprintf("digest-%d", i%3),
			Status:        404,
		})
	}
	return t
}

func TestIndexRoundTrip(t *testing.T) {
	for _, f := range []trace.Fields{0, trace.FieldQueries, trace.AllFields} {
		idx := trace.BuildIndexOf(sampleTrace(), f)
		enc := EncodeIndex(idx)
		dec, err := DecodeIndex(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dec.Fingerprint(), idx.Fingerprint(); got != want || dec.Fields() != f {
			t.Errorf("fields %03b: fingerprint or fields (%03b) diverged after round-trip:\ngot:\n%s\nwant:\n%s", f, dec.Fields(), got, want)
		}
	}
}

// An absent optional field costs nothing on the wire: the lean encoding
// is the rich one without that field's dictionary and lists.
func TestAbsentFieldsAreNotEncoded(t *testing.T) {
	lean := EncodeIndex(trace.BuildIndex(sampleTrace()))
	rich := EncodeIndex(trace.BuildIndexOf(sampleTrace(), trace.AllFields))
	if len(lean) >= len(rich) {
		t.Errorf("lean encoding %d B, rich %d B", len(lean), len(rich))
	}
	for _, name := range []string{"agent-0", "digest-0", "e&id"} {
		if bytes.Contains(lean, []byte(name)) || !bytes.Contains(rich, []byte(name)) {
			t.Errorf("%q: only the rich encoding may carry it", name)
		}
	}
}

// The encoding is canonical: an index with a foreign symbol table (ids
// offset by unrelated interning) encodes to the same bytes, and
// encode(decode(b)) == b.
func TestEncodingCanonical(t *testing.T) {
	tr := sampleTrace()
	plain := trace.BuildIndexOf(tr, trace.AllFields)

	sy := trace.NewSymbols()
	for i := 0; i < 100; i++ {
		junk := fmt.Sprintf("junk-%d", i)
		sy.Servers.ID(junk)
		sy.Clients.ID(junk)
		sy.Files.ID(junk)
		sy.Agents.ID(junk)
	}
	foreign := trace.NewIndexOf(sy, trace.AllFields)
	for i := range tr.Requests {
		foreign.Add(&tr.Requests[i])
	}

	a, b := EncodeIndex(plain), EncodeIndex(foreign)
	if string(a) != string(b) {
		t.Error("encoding differs across symbol tables")
	}
	dec, err := DecodeIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(EncodeIndex(dec)) != string(a) {
		t.Error("encode(decode(b)) != b")
	}
}

// A decoded fragment remap-merges into an aggregate exactly like the
// original index would, also after requests added to both intern names
// past the decoded dictionary.
func TestDecodedFragmentMerges(t *testing.T) {
	idx := trace.BuildIndex(sampleTrace())
	dec, err := DecodeIndex(EncodeIndex(idx))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2011, 10, 2, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		r := trace.Request{
			Time:      base.Add(time.Duration(i) * time.Minute),
			Client:    fmt.Sprintf("10.0.%d.%d", i%2, i%5), // old and new clients
			Host:      fmt.Sprintf("site-%d.example.com", i%9),
			ServerIP:  "198.51.100.1",
			Path:      fmt.Sprintf("/new/f%d.js", i%4),
			UserAgent: "agent-new",
			Status:    200,
		}
		idx.Add(&r)
		dec.Add(&r)
	}
	if dec.Fingerprint() != idx.Fingerprint() {
		t.Fatal("requests added after decode diverged from the same requests added to the original")
	}

	direct := trace.NewIndex()
	direct.Merge(idx)
	viaWire := trace.NewIndex()
	viaWire.Merge(dec)
	if direct.Fingerprint() != viaWire.Fingerprint() {
		t.Error("merge of decoded fragment diverged from merge of original")
	}
}

func TestEmptyIndexRoundTrip(t *testing.T) {
	idx := trace.NewIndex()
	dec, err := DecodeIndex(EncodeIndex(idx))
	if err != nil {
		t.Fatal(err)
	}
	if dec.RequestCount != 0 || len(dec.Servers) != 0 {
		t.Errorf("empty index decoded to %d requests, %d servers", dec.RequestCount, len(dec.Servers))
	}
}

func TestFragmentRoundTrip(t *testing.T) {
	idx := trace.BuildIndex(sampleTrace())
	f := &Fragment{
		Node:   "ingest-0",
		Window: 15248,
		Start:  time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC),
		End:    time.Date(2011, 10, 2, 0, 0, 0, 0, time.UTC),
		Index:  idx,
	}
	dec, err := DecodeFragment(EncodeFragment(f))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Node != f.Node || dec.Window != f.Window || !dec.Start.Equal(f.Start) || !dec.End.Equal(f.End) || dec.Final {
		t.Errorf("envelope diverged: %+v", dec)
	}
	if dec.Index != nil || string(dec.Payload) != string(EncodeIndex(idx)) {
		t.Error("decoded fragment does not carry its index's canonical bytes")
	}

	final := &Fragment{Node: "ingest-1", Window: 7, Final: true}
	decF, err := DecodeFragment(EncodeFragment(final))
	if err != nil {
		t.Fatal(err)
	}
	if !decF.Final || decF.Payload != nil || decF.Node != "ingest-1" {
		t.Errorf("final marker diverged: %+v", decF)
	}
}

func TestHopRoundTrip(t *testing.T) {
	idx := trace.BuildIndex(sampleTrace())
	f := &Fragment{
		Node:   "ingest-0",
		Window: 42,
		Start:  time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC),
		End:    time.Date(2011, 10, 2, 0, 0, 0, 0, time.UTC),
		Index:  idx,
		Hops: []Hop{
			{
				Node: "ingest-0", Role: "ingest",
				Send:       time.Date(2011, 10, 2, 0, 0, 1, 500, time.UTC),
				Recv:       time.Date(2011, 10, 2, 0, 0, 2, 0, time.UTC),
				Attempts:   3,
				SpoolDwell: 90 * time.Second,
			},
			// In-flight hop: Recv not yet stamped.
			{Node: "merge-0", Role: "merge", Send: time.Date(2011, 10, 2, 0, 0, 3, 0, time.UTC), Attempts: 1},
		},
	}
	enc := EncodeFragment(f)
	dec, err := DecodeFragment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Hops) != 2 {
		t.Fatalf("decoded %d hops, want 2", len(dec.Hops))
	}
	for i, h := range dec.Hops {
		w := f.Hops[i]
		if h.Node != w.Node || h.Role != w.Role || !h.Send.Equal(w.Send) || !h.Recv.Equal(w.Recv) ||
			h.Attempts != w.Attempts || h.SpoolDwell != w.SpoolDwell {
			t.Errorf("hop %d diverged:\ngot  %+v\nwant %+v", i, h, w)
		}
	}
	if !dec.Hops[1].Recv.IsZero() {
		t.Errorf("unset Recv decoded as %v, want zero time", dec.Hops[1].Recv)
	}
	if string(EncodeFragment(dec)) != string(enc) {
		t.Error("encode(decode(b)) != b with hops present")
	}
	if string(dec.Payload) != string(EncodeIndex(idx)) {
		t.Error("hop trail corrupted the index payload")
	}
}

// AppendHop on encoded bytes is exactly equivalent to appending the hop
// to the struct and re-encoding — the relay fast path changes nothing.
func TestAppendHopMatchesReencode(t *testing.T) {
	idx := trace.BuildIndex(sampleTrace())
	f := &Fragment{
		Node:   "shard1",
		Window: 9,
		Start:  time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		End:    time.Date(2020, 1, 2, 0, 0, 0, 0, time.UTC),
		Index:  idx,
		Hops:   []Hop{{Node: "shard1", Role: "ingest", Send: time.Unix(100, 0).UTC(), Attempts: 1}},
	}
	h := Hop{Node: "merge0", Role: "merge", Send: time.Unix(200, 7).UTC(), Recv: time.Unix(201, 0).UTC(), Attempts: 2, SpoolDwell: time.Second}

	appended := AppendHop(EncodeFragment(f), h)
	f.Hops = append(f.Hops, h)
	if string(appended) != string(EncodeFragment(f)) {
		t.Error("AppendHop diverged from re-encoding with the hop in place")
	}
}

// Final markers carry hops too — the trail is how the root learns the
// role of a node that never shipped a non-empty window.
func TestFinalMarkerCarriesHops(t *testing.T) {
	final := &Fragment{
		Node: "shard0", Window: 12, Final: true,
		Hops: []Hop{{Node: "shard0", Role: "ingest", Send: time.Unix(50, 0).UTC(), Attempts: 1}},
	}
	dec, err := DecodeFragment(EncodeFragment(final))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Final || len(dec.Hops) != 1 || dec.Hops[0].Role != "ingest" {
		t.Errorf("final marker diverged: %+v", dec)
	}
}

func TestHopDecodeRejectsCorruption(t *testing.T) {
	enc := EncodeFragment(&Fragment{Node: "n", Window: 1, Final: true})
	cases := map[string][]byte{
		"truncated hop":  append(append([]byte{}, enc...), 2, 'a'), // node length 2, one byte
		"hop bad string": append(append([]byte{}, enc...), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		// Keep the hop's node/role/send/recv/attempts bytes, replace the
		// dwell varint with a value above MaxInt64.
		"huge dwell": append(AppendHop(append([]byte{}, enc...), Hop{Node: "x"})[:len(enc)+6],
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
	}
	for name, data := range cases {
		if _, err := DecodeFragment(data); err == nil {
			t.Errorf("%s: decode accepted corrupt hop section", name)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := EncodeIndex(trace.BuildIndex(sampleTrace()))
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("XXXX"), enc[4:]...),
		"future ver":    append(append([]byte{}, enc[:4]...), append([]byte{99}, enc[5:]...)...),
		"truncated":     enc[:len(enc)/2],
		"trailing junk": append(append([]byte{}, enc...), 0xFF),
	}
	for name, data := range cases {
		if _, err := DecodeIndex(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
	if _, err := DecodeFragment([]byte("SMWF")); err == nil {
		t.Error("fragment decode accepted truncated input")
	}
	// A huge claimed collection length must fail fast, not allocate.
	huge := append(append([]byte{}, enc[:7]...), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := DecodeIndex(huge); err == nil {
		t.Error("decode accepted absurd dictionary length")
	}
}

// Only the current versions decode: a newer or an older index or
// envelope is refused with an error naming both versions, never misread.
func TestVersionErrorMentionsVersions(t *testing.T) {
	idx := EncodeIndex(trace.BuildIndex(sampleTrace()))
	frag := EncodeFragment(&Fragment{Node: "n", Window: 1, Index: trace.BuildIndex(sampleTrace())})
	for _, v := range []byte{1, 9} { // single-byte uvarints
		badIdx := append([]byte{}, idx...)
		badIdx[4] = v
		_, err := DecodeIndex(badIdx)
		if want := fmt.Sprintf("version %d (want %d)", v, Version); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("index version %d: error = %v, want it to name %q", v, err, want)
		}
		badFrag := append([]byte{}, frag...)
		badFrag[4] = v
		_, err = DecodeFragment(badFrag)
		if want := fmt.Sprintf("version %d (want %d)", v, FragmentVersion); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("fragment version %d: error = %v, want it to name %q", v, err, want)
		}
	}
}

// Duplicate or out-of-order count-map entries are corruption, not a
// silent overwrite (the encoder emits strictly increasing positions).
func TestDecodeRejectsUnsortedCounts(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Time: time.Unix(10, 0), Client: "c1", Host: "a.test", ServerIP: "1.1.1.1", Path: "/x", Status: 200},
		{Time: time.Unix(11, 0), Client: "c2", Host: "a.test", ServerIP: "1.1.1.1", Path: "/x", Status: 200},
	}}
	enc := EncodeIndex(trace.BuildIndex(tr))
	// The two clients of server a.test encode as the pairs (0,1),(1,1).
	// Find that byte run and swap the positions to (1,1),(0,1).
	pat := []byte{2, 0, 1, 1, 1}
	i := bytes.Index(enc, pat)
	if i < 0 {
		t.Fatal("expected count-map byte pattern not found; encoding changed?")
	}
	bad := append([]byte{}, enc...)
	bad[i+1], bad[i+3] = 1, 0
	if _, err := DecodeIndex(bad); err == nil {
		t.Error("out-of-order count map accepted")
	}
	dup := append([]byte{}, enc...)
	dup[i+3] = dup[i+1] // duplicate position
	if _, err := DecodeIndex(dup); err == nil {
		t.Error("duplicate count-map position accepted")
	}
}

// The receiver gates detection on the header's request total, so totals
// that disagree with the servers they summarize are corruption, not a
// window to be silently counted empty.
func TestDecodeRejectsInconsistentTotals(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Time: time.Unix(10, 0), Client: "c1", Host: "a.test", ServerIP: "1.1.1.1", Path: "/x", Status: 200},
		{Time: time.Unix(11, 0), Client: "c2", Host: "a.test", ServerIP: "1.1.1.1", Path: "/x", Status: 500},
	}}
	enc := EncodeIndex(trace.BuildIndex(tr))
	if enc[6] != 2 {
		t.Fatalf("header request total = %d at byte 6, want 2; encoding changed?", enc[6])
	}
	// Server a.test encodes as requests=2, errors=1, then its two clients
	// as the pairs (0,1),(1,1).
	i := bytes.Index(enc, []byte{2, 1, 2, 0, 1, 1, 1})
	if i < 0 {
		t.Fatal("expected server byte pattern not found; encoding changed?")
	}
	for name, patch := range map[string]struct {
		at  int
		val byte
	}{
		"header total zeroed":    {6, 0},
		"header total inflated":  {6, 100},
		"server total off":       {i, 3},
		"errors exceed requests": {i + 1, 3},
		"client count off":       {i + 4, 2},
	} {
		bad := append([]byte{}, enc...)
		bad[patch.at] = patch.val
		if _, err := DecodeIndex(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// MergeIndexes at its edges: no inputs encode the empty index, one input
// merges to itself, and a count the sum would push past 2^32−1 is refused
// rather than wrapped.
func TestMergeIndexesEdges(t *testing.T) {
	got, err := MergeIndexes(nil)
	if err != nil || string(got) != string(EncodeIndex(trace.NewIndex())) {
		t.Errorf("no inputs: %q, %v; want the empty index's encoding", got, err)
	}
	one := EncodeIndex(trace.BuildIndex(sampleTrace()))
	if got, err := MergeIndexes([][]byte{one}); err != nil || string(got) != string(one) {
		t.Errorf("one input did not merge to itself (err %v)", err)
	}

	idx := trace.BuildIndex(sampleTrace())
	for _, info := range idx.Servers {
		for ip := range info.IPs {
			info.IPs[ip] = math.MaxUint32
		}
	}
	wide := EncodeIndex(idx)
	if _, err := DecodeIndex(wide); err != nil {
		t.Fatalf("a count of 2^32-1 must decode: %v", err)
	}
	if _, err := MergeIndexes([][]byte{wide, one}); err == nil {
		t.Error("merged count above 2^32-1 accepted")
	}
	rich := EncodeIndex(trace.BuildIndexOf(sampleTrace(), trace.FieldAgents))
	if _, err := MergeIndexes([][]byte{one, rich}); err == nil {
		t.Error("inputs of different field sets merged")
	}
}

// TestDecodeIndexBuildsServersOnce pins the decoder's allocations on a
// fixed index of 40 servers: each server is built once, with only the
// count maps its encoding carries. A decoder that registers every server
// with empty maps first and then replaces them pays four to seven more
// allocations per server (160 to 280 in all), far past the slack allowed here.
func TestDecodeIndexBuildsServersOnce(t *testing.T) {
	for _, tc := range []struct {
		fields trace.Fields
		max    float64
	}{{0, 760}, {trace.AllFields, 1040}} {
		idx := trace.NewIndexOf(trace.NewSymbols(), tc.fields)
		for i := 0; i < 400; i++ {
			idx.Add(&trace.Request{
				Client: fmt.Sprintf("c%d", i%23), Host: fmt.Sprintf("s%d.com", i%40),
				ServerIP: fmt.Sprintf("10.0.0.%d", i%40), Path: fmt.Sprintf("/f%d.php", i%7),
				Referrer: fmt.Sprintf("s%d.com", i%3), UserAgent: fmt.Sprintf("ua%d", i%4),
				Query: "id=1", PayloadDigest: fmt.Sprintf("d%d", i%5), Status: 200,
			})
		}
		enc := EncodeIndex(idx)
		if got := testing.AllocsPerRun(10, func() { DecodeIndex(enc) }); got > tc.max {
			t.Errorf("fields %03b: DecodeIndex of %d servers made %.0f allocations, want <= %.0f",
				tc.fields, len(idx.Servers), got, tc.max)
		}
	}
}
