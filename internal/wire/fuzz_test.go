package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"smash/internal/intern"
	"smash/internal/trace"
)

// fuzzRequests derives a deterministic request sequence from raw fuzz
// bytes: every 4-byte chunk becomes one request whose fields are drawn
// from small pools (so servers/clients/files actually collide and build
// non-trivial aggregates), with occasional raw substrings of the input
// mixed in to exercise arbitrary byte content in interned names.
func fuzzRequests(data []byte) []trace.Request {
	base := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	var reqs []trace.Request
	for i := 0; i+4 <= len(data) && len(reqs) < 512; i += 4 {
		b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		r := trace.Request{
			Time:   base.Add(time.Duration(b0) * time.Minute),
			Client: fmt.Sprintf("c%d", b1%13),
			Status: 200,
		}
		switch b2 % 4 {
		case 0:
			r.Host = fmt.Sprintf("host%d.example.com", b3%9)
			r.ServerIP = fmt.Sprintf("10.1.0.%d", b3%9)
		case 1:
			r.ServerIP = fmt.Sprintf("10.2.0.%d", b3%7)
		case 2:
			r.Host = fmt.Sprintf("h%d.test", b3%5)
			r.Referrer = fmt.Sprintf("ref%d.test", b0%4)
			r.Query = fmt.Sprintf("a=%d&b=%d", b3%3, b0%2)
		default:
			// Arbitrary bytes as a hostname: interned names must survive
			// any content.
			r.Host = string(data[i : i+2+int(b3%3)])
			r.ServerIP = "10.3.0.1"
			r.PayloadDigest = fmt.Sprintf("d%d", b0%6)
		}
		if b1%3 == 0 {
			r.UserAgent = fmt.Sprintf("ua-%d", b2%4)
		}
		if b0%5 == 0 {
			r.Status = 500
		}
		r.Path = fmt.Sprintf("/p/f%d", b2%6)
		reqs = append(reqs, r)
	}
	return reqs
}

// FuzzIndexRoundTrip is the codec's core guarantee: for any index —
// of any field set (junk picks it), including one whose symbol table
// carries foreign ids from unrelated interning, and one whose ids run
// against name order — encode→decode preserves the Fingerprint and the
// fields exactly, the encoding is canonical across symbol tables, and it
// is byte for byte the reference encoder's.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(17))
	f.Add(bytesSeq(256), uint8(101))
	f.Fuzz(func(t *testing.T, data []byte, junk uint8) {
		reqs := fuzzRequests(data)
		fields := trace.Fields(junk) & trace.AllFields

		plain := trace.NewIndexOf(trace.NewSymbols(), fields)
		for i := range reqs {
			plain.Add(&reqs[i])
		}

		// Foreign symbol table: pre-intern junk so local ids differ.
		sy := trace.NewSymbols()
		for i := 0; i < int(junk); i++ {
			s := fmt.Sprintf("noise-%d", i)
			sy.Servers.ID(s)
			sy.Clients.ID(s)
			sy.IPs.ID(s)
			sy.Files.ID(s)
			sy.Agents.ID(s)
			sy.Queries.ID(s)
			sy.Payloads.ID(s)
		}
		foreign := trace.NewIndexOf(sy, fields)
		for i := range reqs {
			foreign.Add(&reqs[i])
		}

		// Reversed symbol table: every name the index uses is interned in
		// reverse name order, after names it never references.
		rsy := trace.NewSymbols()
		for _, pair := range [][2]*intern.Table{{plain.Syms.Servers, rsy.Servers}, {plain.Syms.Clients, rsy.Clients},
			{plain.Syms.IPs, rsy.IPs}, {plain.Syms.Files, rsy.Files}, {plain.Syms.Agents, rsy.Agents},
			{plain.Syms.Queries, rsy.Queries}, {plain.Syms.Payloads, rsy.Payloads}} {
			names := slices.Clone(pair[0].Names())
			slices.Sort(names)
			slices.Reverse(names)
			pair[1].ID("\xffunreferenced")
			for _, n := range names {
				pair[1].ID(n)
			}
		}
		reversed := trace.NewIndexOf(rsy, fields)
		for i := range reqs {
			reversed.Add(&reqs[i])
		}

		encPlain, encForeign := EncodeIndex(plain), EncodeIndex(foreign)
		if string(encPlain) != string(encForeign) || string(EncodeIndex(reversed)) != string(encPlain) {
			t.Fatal("encoding not canonical across symbol tables")
		}
		for _, idx := range []*trace.Index{plain, foreign, reversed} {
			if string(EncodeIndex(idx)) != string(referenceEncodeIndex(idx)) {
				t.Fatal("encoding differs from the reference encoder's")
			}
		}
		dec, err := DecodeIndex(encForeign)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got, want := dec.Fingerprint(), plain.Fingerprint(); got != want || dec.Fields() != fields {
			t.Errorf("fingerprint or fields %03b diverged:\ngot:\n%s\nwant:\n%s", dec.Fields(), got, want)
		}
		if string(EncodeIndex(dec)) != string(encPlain) {
			t.Error("encode(decode(b)) != b")
		}
	})
}

// FuzzDecodeIndex feeds arbitrary bytes to the decoder: it must return an
// error or an index that encodes back to exactly the input, never panic
// or over-allocate. The seed corpus (TestDecodeIndexSeeds names what
// each file must hit) holds one file per shape the decoder refuses and
// one valid index that keeps every optional field.
func FuzzDecodeIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SMWF"))
	f.Add(EncodeIndex(trace.NewIndex()))
	idx := trace.NewIndex()
	for _, r := range fuzzRequests(bytesSeq(64)) {
		r := r
		idx.Add(&r)
	}
	f.Add(EncodeIndex(idx))
	// Seed a huge claimed length.
	huge := append([]byte("SMWF"), Version, 0)
	huge = binary.AppendUvarint(huge, 10)
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeIndex(data)
		if err == nil {
			if enc := EncodeIndex(dec); string(enc) != string(data) {
				t.Errorf("accepted a non-canonical encoding:\n in  %q\n out %q", data, enc)
			}
		}
		DecodeFragment(data)
	})
}

// TestDecodeIndexSeeds decodes every file of FuzzDecodeIndex's seed
// corpus and checks it reaches the check it is kept for: a seed that an
// earlier check stops — the version check, after a codec bump — fuzzes
// nothing past it.
func TestDecodeIndexSeeds(t *testing.T) {
	const dir = "testdata/fuzz/FuzzDecodeIndex"
	want := map[string]string{ // file -> error substring; "" decodes
		"all-fields":        "",
		"fb9507163fecca85":  "scalar",
		"overlong-varint":   "overlong varint",
		"unreferenced-name": `dictionary name "z" unreferenced`,
		"unsorted-servers":  "record position 0 out of range or order",
		"v2-all-fields":     fmt.Sprintf("unsupported index version 2 (want %d)", Version),
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d seed files, want %d: name what each new one must hit", len(files), len(want))
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, _ := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		lit, _ = strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		w, ok := want[f.Name()]
		_, err = DecodeIndex([]byte(data))
		switch {
		case !ok:
			t.Errorf("%s: seed not listed here", f.Name())
		case w == "" && err != nil:
			t.Errorf("%s: %v, want it to decode", f.Name(), err)
		case w != "" && (err == nil || !strings.Contains(err.Error(), w)):
			t.Errorf("%s: error %v, want one naming %q", f.Name(), err, w)
		}
	}
}

// FuzzMergeIndexes checks the byte merge against the map merge: two or
// three indexes of one field set (at picks it), each built from its own
// slice of the fuzz bytes under its own Symbols, must merge — in every
// argument order — to exactly EncodeIndex of their direct Merge, and an
// input of another field set must be refused. Flipping one byte of one
// input must make MergeIndexes refuse exactly when DecodeIndex refuses
// that input.
func FuzzMergeIndexes(f *testing.F) {
	f.Add([]byte{}, uint8(2), uint16(0), uint8(0))
	f.Add(bytesSeq(96), uint8(2), uint16(40), uint8(0x80))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint16(7), uint8(1))
	f.Add(bytesSeq(256), uint8(3), uint16(300), uint8(0x10))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8, at uint16, flip uint8) {
		n := 2 + int(parts%2)
		fields := trace.Fields(at) & trace.AllFields
		idxs := make([]*trace.Index, n)
		for i := range idxs {
			idxs[i] = trace.NewIndexOf(trace.NewSymbols(), fields)
			// Interleaved chunks, so the parts share servers and clients.
			for j, r := range fuzzRequests(data) {
				if j%(n+1) == i || j%(n+1) == n {
					idxs[i].Add(&r)
				}
			}
		}
		want := trace.NewIndexOf(trace.NewSymbols(), fields)
		encs := make([][]byte, n)
		for i, idx := range idxs {
			want.Merge(idx)
			encs[i] = EncodeIndex(idx)
		}
		wantEnc := EncodeIndex(want)
		orders := [][]int{{0, 1}, {1, 0}}
		if n == 3 {
			orders = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		}
		for _, order := range orders {
			in := make([][]byte, n)
			for i, j := range order {
				in[i] = encs[j]
			}
			got, err := MergeIndexes(in)
			if err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
			if string(got) != string(wantEnc) {
				t.Fatalf("order %v: merged bytes differ from EncodeIndex of the merged index", order)
			}
		}
		other := trace.NewIndexOf(trace.NewSymbols(), fields^trace.FieldQueries)
		for _, r := range fuzzRequests(data) {
			other.Add(&r)
		}
		if _, err := MergeIndexes([][]byte{encs[0], EncodeIndex(other)}); err == nil {
			t.Fatal("inputs of different field sets merged")
		}

		if flip == 0 {
			return
		}
		bad := append([]byte(nil), encs[0]...)
		bad[int(at)%len(bad)] ^= flip
		dec, decErr := DecodeIndex(bad)
		if decErr == nil && dec.Fields() != fields {
			decErr = errors.New("flipped into another field set, which the merge refuses")
		}
		got, err := MergeIndexes([][]byte{encs[1], bad})
		switch {
		case (err != nil) != (decErr != nil):
			t.Fatalf("corrupted input: MergeIndexes error %v, DecodeIndex error %v", err, decErr)
		case err == nil:
			direct := trace.NewIndexOf(trace.NewSymbols(), fields)
			direct.Merge(idxs[1])
			direct.Merge(dec)
			if string(got) != string(EncodeIndex(direct)) {
				t.Fatal("corrupted but canonical input: merged bytes differ from EncodeIndex of the merged index")
			}
		}
	})
}

// FuzzEncodeLogs checks the run encoder against the map oracle: requests
// — with absent IPs and referrers, self-referrers and empty server keys
// mixed in, under every fields mask (fields picks it) — logged round-robin
// across 1–4 shard logs under two symbol epochs (cut splits them) encode,
// each epoch's logs at once and the epochs merged as bytes, to exactly
// the reference encoding of the index built from all of them. Each
// epoch's encoding alone is the reference encoding of its own requests.
func FuzzEncodeLogs(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint16(0))
	f.Add(bytesSeq(96), uint8(2), uint8(7), uint16(9))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(1), uint16(4))
	f.Add(bytesSeq(256), uint8(1), uint8(6), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, shards, fields uint8, cut uint16) {
		reqs := fuzzRequests(data)
		for i := range reqs {
			switch data[4*i+1] % 11 {
			case 3:
				reqs[i].Referrer = reqs[i].Host // self-referrer
			case 7:
				reqs[i].Host, reqs[i].ServerIP = "", "" // no server key: not indexed
			}
		}
		mask := trace.Fields(fields) & trace.AllFields
		n, split := 1+int(shards%4), int(cut)%(len(reqs)+1)
		var encs [][]byte
		for _, part := range [][]trace.Request{reqs[:split], reqs[split:]} {
			sy := trace.NewSymbols()
			sy.Clients.ID("noise") // ids differ between the epochs
			logs := make([]*trace.Log, n)
			ins := make([]trace.Interner, n)
			for i := range logs {
				logs[i] = &trace.Log{Syms: sy, Fields: mask}
			}
			for i := range part {
				logs[i%n].AddKeyed(&part[i], ins[i%n].ServerKey(sy, &part[i]), &ins[i%n])
			}
			enc := EncodeLogs(logs...)
			if want := referenceEncodeIndex(trace.BuildIndexOf(&trace.Trace{Requests: part}, mask)); string(enc) != string(want) {
				t.Fatalf("%d shard logs of %d requests: run encoding differs from the reference encoding", n, len(part))
			}
			encs = append(encs, enc)
		}
		got, err := MergeIndexes(encs)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEncodeIndex(trace.BuildIndexOf(&trace.Trace{Requests: reqs}, mask)); string(got) != string(want) {
			t.Fatal("two epochs' run encodings merge to other bytes than the reference encoding")
		}
	})
}

// FuzzFragmentRoundTrip proves the envelope guarantee with hop records
// present: encode→decode preserves every field, encode(decode(b)) == b,
// and AppendHop on the encoded bytes equals re-encoding with the hop in
// place.
func FuzzFragmentRoundTrip(f *testing.F) {
	f.Add([]byte{}, "n0", int64(0), uint8(0), false)
	f.Add([]byte{1, 2, 3, 4}, "shard1", int64(15248), uint8(2), false)
	f.Add(bytesSeq(64), "merge0", int64(-40), uint8(5), true)
	f.Fuzz(func(t *testing.T, data []byte, node string, window int64, nhops uint8, final bool) {
		base := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
		frag := &Fragment{
			Node:   node,
			Window: window,
			Start:  base,
			End:    base.Add(time.Hour),
			Final:  final,
		}
		if !final {
			idx := trace.NewIndex()
			for _, r := range fuzzRequests(data) {
				r := r
				idx.Add(&r)
			}
			frag.Index = idx
		}
		for i := 0; i < int(nhops%8); i++ {
			h := Hop{
				Node:     fmt.Sprintf("%s-hop%d", node, i),
				Role:     []string{"ingest", "merge", ""}[i%3],
				Send:     base.Add(time.Duration(i) * time.Second),
				Attempts: i + 1,
			}
			if i%2 == 0 {
				h.Recv = h.Send.Add(time.Duration(i) * time.Millisecond)
			}
			if i%3 == 1 {
				h.SpoolDwell = time.Duration(i) * time.Minute
			}
			frag.Hops = append(frag.Hops, h)
		}

		enc := EncodeFragment(frag)
		dec, err := DecodeFragment(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if dec.Node != frag.Node || dec.Window != frag.Window || dec.Final != frag.Final {
			t.Fatalf("envelope diverged: %+v", dec)
		}
		if len(dec.Hops) != len(frag.Hops) {
			t.Fatalf("decoded %d hops, want %d", len(dec.Hops), len(frag.Hops))
		}
		for i, h := range dec.Hops {
			w := frag.Hops[i]
			if h.Node != w.Node || h.Role != w.Role || !h.Send.Equal(w.Send) || !h.Recv.Equal(w.Recv) ||
				h.Attempts != w.Attempts || h.SpoolDwell != w.SpoolDwell {
				t.Fatalf("hop %d diverged:\ngot  %+v\nwant %+v", i, h, w)
			}
		}
		if frag.Index != nil {
			idx, err := DecodeIndex(dec.Payload)
			if err != nil || idx.Fingerprint() != frag.Index.Fingerprint() {
				t.Errorf("fragment index diverged (decode error %v)", err)
			}
		}
		if string(EncodeFragment(dec)) != string(enc) {
			t.Error("encode(decode(b)) != b")
		}

		extra := Hop{Node: "relay", Role: "merge", Send: base.Add(time.Minute), Attempts: 1}
		appended := AppendHop(enc, extra)
		frag.Hops = append(frag.Hops, extra)
		if string(appended) != string(EncodeFragment(frag)) {
			t.Error("AppendHop diverged from re-encoding")
		}
		if _, err := DecodeFragment(appended); err != nil {
			t.Errorf("decode after AppendHop failed: %v", err)
		}
	})
}

func bytesSeq(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}
