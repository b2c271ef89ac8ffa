package trace

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func req(client, host, ip, path string) Request {
	return Request{
		Time:     time.Unix(1000, 0).UTC(),
		Client:   client,
		Host:     host,
		ServerIP: ip,
		Path:     path,
		Status:   200,
	}
}

func TestURIFile(t *testing.T) {
	tests := []struct {
		path string
		want string
	}{
		{"/images/news.php", "news.php"},
		{"/login.php", "login.php"},
		{"/", "/"},
		{"", "/"},
		{"/wp-content/uploads/sm3.php", "sm3.php"},
		{"/a/b/", "/"},
		{"setup.php", "setup.php"},
		{"/scrape.php?info_hash=xyz", "scrape.php"},
		{"/images/file.txt", "file.txt"},
	}
	for _, tt := range tests {
		t.Run(tt.path, func(t *testing.T) {
			if got := URIFileOf(tt.path); got != tt.want {
				t.Errorf("URIFileOf(%q) = %q, want %q", tt.path, got, tt.want)
			}
		})
	}
}

func TestURIFileNeverContainsSlashOrQuery(t *testing.T) {
	f := func(path string) bool {
		got := URIFileOf(path)
		if got == "/" {
			return true
		}
		for i := 0; i < len(got); i++ {
			if got[i] == '/' || got[i] == '?' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServerKey(t *testing.T) {
	r := req("c1", "a.xyz.com", "1.2.3.4", "/x")
	if got := r.ServerKey(); got != "xyz.com" {
		t.Errorf("ServerKey = %q, want xyz.com", got)
	}
	r2 := req("c1", "", "1.2.3.4", "/x")
	if got := r2.ServerKey(); got != "1.2.3.4" {
		t.Errorf("ServerKey = %q, want 1.2.3.4", got)
	}
}

func TestComputeStats(t *testing.T) {
	tr := &Trace{Name: "T", Requests: []Request{
		req("c1", "a.xyz.com", "1.1.1.1", "/p/a.php"),
		req("c1", "b.xyz.com", "1.1.1.2", "/q/a.php"),
		req("c2", "other.net", "2.2.2.2", "/b.php"),
		req("c2", "other.net", "2.2.2.2", "/b.php"),
	}}
	s := tr.ComputeStats()
	if s.Clients != 2 {
		t.Errorf("Clients = %d, want 2", s.Clients)
	}
	if s.Requests != 4 {
		t.Errorf("Requests = %d, want 4", s.Requests)
	}
	if s.Servers != 2 {
		t.Errorf("Servers = %d, want 2 (SLD aggregation)", s.Servers)
	}
	if s.URIFiles != 2 {
		t.Errorf("URIFiles = %d, want 2", s.URIFiles)
	}
	if s.Render() == "" {
		t.Error("empty render")
	}
}

func TestBuildIndexAggregation(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("c1", "a.xyz.com", "1.1.1.1", "/a.php"),
		req("c2", "b.xyz.com", "1.1.1.2", "/b.php"),
		req("c1", "other.net", "2.2.2.2", "/c.php"),
	}}
	idx := BuildIndex(tr)
	if len(idx.Servers) != 2 {
		t.Fatalf("servers = %d, want 2", len(idx.Servers))
	}
	xyz := idx.Servers["xyz.com"]
	if xyz == nil {
		t.Fatal("xyz.com missing")
	}
	if len(xyz.Clients) != 2 {
		t.Errorf("xyz.com clients = %d, want 2", len(xyz.Clients))
	}
	if len(xyz.IPs) != 2 {
		t.Errorf("xyz.com IPs = %d, want 2", len(xyz.IPs))
	}
	if xyz.IDF() != 2 {
		t.Errorf("IDF = %d, want 2", xyz.IDF())
	}
	if got := idx.ComputeStats("x").Clients; got != 2 {
		t.Errorf("clients = %d, want 2", got)
	}
}

func TestIndexReferrerAndErrors(t *testing.T) {
	r1 := req("c1", "victim.com", "3.3.3.3", "/x.php")
	r1.Referrer = "landing.com"
	r1.Status = 404
	r2 := req("c2", "victim.com", "3.3.3.3", "/x.php")
	r2.Referrer = "www.landing.com"
	tr := &Trace{Requests: []Request{r1, r2}}
	idx := BuildIndex(tr)
	v := idx.Servers["victim.com"]
	ref, share := v.DominantReferrer()
	if ref != "landing.com" || share != 1.0 {
		t.Errorf("DominantReferrer = %q %g, want landing.com 1.0", ref, share)
	}
	if got := v.ErrorFraction(); got != 0.5 {
		t.Errorf("ErrorFraction = %g, want 0.5", got)
	}
}

func TestSelfReferrerIgnored(t *testing.T) {
	r := req("c1", "a.example.com", "1.1.1.1", "/x")
	r.Referrer = "b.example.com" // same SLD -> not an external referrer
	idx := BuildIndex(&Trace{Requests: []Request{r}})
	if n := len(idx.Servers["example.com"].Referrers); n != 0 {
		t.Errorf("self-referrer recorded: %d entries", n)
	}
}

func TestIndexRemove(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("c1", "a.com", "1.1.1.1", "/x"),
		req("c1", "b.com", "1.1.1.2", "/y"),
		req("c2", "a.com", "1.1.1.1", "/x"),
	}}
	idx := BuildIndex(tr)
	idx.Remove("a.com")
	if _, ok := idx.Servers["a.com"]; ok {
		t.Fatal("a.com still present")
	}
	if idx.RequestCount != 1 {
		t.Errorf("RequestCount = %d, want 1", idx.RequestCount)
	}
	// c2 contacted only the removed server, so only c1 is left.
	if got := idx.ComputeStats("x").Clients; got != 1 {
		t.Errorf("clients = %d, want 1", got)
	}
	idx.Remove("missing") // no-op must not panic
}

func TestIndexClone(t *testing.T) {
	tr := &Trace{Requests: []Request{req("c1", "a.com", "1.1.1.1", "/x")}}
	idx := BuildIndex(tr)
	cl := idx.Clone()
	cl.Remove("a.com")
	if _, ok := idx.Servers["a.com"]; !ok {
		t.Error("clone removal mutated original")
	}
	if idx.RequestCount != 1 {
		t.Errorf("original RequestCount = %d, want 1", idx.RequestCount)
	}
}

func TestIndexShallowClone(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("c1", "a.com", "1.1.1.1", "/x"),
		req("c1", "b.com", "1.1.1.2", "/y"),
		req("c2", "a.com", "1.1.1.1", "/x"),
		req("c3", "c.com", "1.1.1.3", "/z"),
	}}
	idx := BuildIndex(tr)
	before := idx.Fingerprint()
	cl := idx.ShallowClone()
	if cl.Fingerprint() != before {
		t.Errorf("shallow clone differs:\n%s\nwant\n%s", cl.Fingerprint(), before)
	}
	if cl.Syms != idx.Syms || cl.Servers["b.com"] != idx.Servers["b.com"] {
		t.Error("ShallowClone must share the symbols and the servers' aggregates, not copy them")
	}
	// What the clone owns is its own: filtering it leaves the source alone.
	cl.Remove("a.com")
	cl.Remove("b.com")
	if got := idx.Fingerprint(); got != before {
		t.Errorf("source index changed:\n%s\nwant\n%s", got, before)
	}
	want := idx.Clone()
	want.Remove("a.com")
	want.Remove("b.com")
	if cl.Fingerprint() != want.Fingerprint() {
		t.Errorf("filtered shallow clone:\n%s\nwant\n%s", cl.Fingerprint(), want.Fingerprint())
	}
	// c1 and c2 contacted only removed servers; the source keeps all three.
	if got, src := cl.ComputeStats("x").Clients, idx.ComputeStats("x").Clients; got != 1 || src != 3 {
		t.Errorf("clients = %d in the filtered clone and %d in the source, want 1 and 3", got, src)
	}
	if got := cl.Nodes().Names; len(got) != 1 || got[0] != "c.com" {
		t.Errorf("nodes = %v, want [c.com]", got)
	}
}

func TestFileListSorted(t *testing.T) {
	sy := NewSymbols()
	info := &ServerInfo{Key: "a.com", SID: sy.Servers.ID("a.com"), Files: Counts{}}
	NewIndexWith(sy).PutServer(info)
	info.Files[sy.Files.ID("z.php")] = 1
	info.Files[sy.Files.ID("a.php")] = 2
	info.Files[sy.Files.ID("m.gif")] = 1
	got := info.FileList()
	want := []string{"a.php", "m.gif", "z.php"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FileList = %v, want %v", got, want)
		}
	}
}

func TestDominantReferrerEmpty(t *testing.T) {
	idx := NewIndex()
	info := &ServerInfo{Key: "a.com", SID: idx.Syms.Servers.ID("a.com"), Referrers: Counts{}}
	idx.PutServer(info)
	info.Requests = 5
	if ref, share := info.DominantReferrer(); ref != "" || share != 0 {
		t.Errorf("DominantReferrer on empty = %q %g", ref, share)
	}
}

func TestServerKeysSorted(t *testing.T) {
	tr := &Trace{Requests: []Request{
		req("c1", "zzz.com", "1.1.1.1", "/"),
		req("c1", "aaa.com", "1.1.1.2", "/"),
	}}
	idx := BuildIndex(tr)
	keys := idx.Nodes().Names
	if len(keys) != 2 || keys[0] != "aaa.com" || keys[1] != "zzz.com" {
		t.Errorf("Nodes().Names = %v", keys)
	}
}

func TestQueryPattern(t *testing.T) {
	tests := []struct {
		query string
		want  string
	}{
		{"p=16435&id=21799517&e=0", "e&id&p"},
		{"id=1&p=2&e=3", "e&id&p"}, // order-insensitive
		{"single=x", "single"},
		{"", ""},
		{"flag", "flag"},    // bare parameter
		{"a=1&&b=2", "a&b"}, // empty segment skipped
	}
	for _, tt := range tests {
		if got := QueryPattern(tt.query); got != tt.want {
			t.Errorf("QueryPattern(%q) = %q, want %q", tt.query, got, tt.want)
		}
	}
}

func TestQueryPatternValueIndependent(t *testing.T) {
	f := func(a, b uint32) bool {
		q1 := fmt.Sprintf("p=%d&id=%d", a, b)
		q2 := fmt.Sprintf("p=%d&id=%d", b, a)
		return QueryPattern(q1) == QueryPattern(q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexTracksQueries(t *testing.T) {
	r := req("c1", "a.com", "1.1.1.1", "/x.php")
	r.Query = "p=1&id=2"
	idx := BuildIndexOf(&Trace{Requests: []Request{r}}, FieldQueries)
	pattern, _ := idx.Syms.Queries.Lookup("id&p")
	info := idx.Servers["a.com"]
	if info.Queries[pattern] != 1 {
		t.Errorf("Queries = %v", info.Queries)
	}
	cl := idx.Clone()
	if cl.Servers["a.com"].Queries[pattern] != 1 || cl.Fields() != FieldQueries {
		t.Error("Clone dropped queries")
	}
}

// An index keeps exactly the optional fields it was built with: the maps
// of the others are never allocated, and their requests intern nothing.
func TestIndexKeepsOnlyItsFields(t *testing.T) {
	reqs := mergeTestRequests()
	for _, f := range []Fields{0, FieldAgents, FieldQueries, FieldPayloads, AllFields} {
		idx := BuildIndexOf(&Trace{Requests: reqs}, f)
		for key, info := range idx.Servers {
			for field, m := range map[Fields]Counts{FieldAgents: info.UserAgents, FieldQueries: info.Queries, FieldPayloads: info.Payloads} {
				if kept := f&field != 0; kept != (len(m) > 0) || !kept && m != nil {
					t.Errorf("fields %03b: server %s field %03b has map %v", f, key, field, m)
				}
			}
		}
		if f&FieldAgents == 0 && idx.Syms.Agents.Len() != 0 {
			t.Errorf("fields %03b: %d User-Agents interned", f, idx.Syms.Agents.Len())
		}
		if got := idx.ShallowClone().Fields(); got != f {
			t.Errorf("ShallowClone keeps fields %03b, want %03b", got, f)
		}
	}
}

// Merging indexes of different field sets is a programming error: it
// panics rather than silently keeping the union or the intersection.
func TestMergeMismatchedFieldsPanics(t *testing.T) {
	reqs := mergeTestRequests()
	for _, absorb := range []bool{false, true} {
		for _, shared := range []bool{false, true} {
			lean := NewIndex()
			syms := lean.Syms
			if !shared {
				syms = NewSymbols()
			}
			rich := NewIndexOf(syms, FieldQueries)
			rich.Add(&reqs[0])
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("absorb=%v shared=%v: merge of mismatched fields did not panic", absorb, shared)
					}
				}()
				if absorb {
					lean.Absorb(rich)
				} else {
					lean.Merge(rich)
				}
			}()
		}
	}
}

func canonicalIndex(idx *Index) string { return idx.Fingerprint() }

func mergeTestRequests() []Request {
	var reqs []Request
	for i := 0; i < 40; i++ {
		r := req(fmt.Sprintf("c%d", i%7), fmt.Sprintf("s%d.com", i%5), fmt.Sprintf("9.9.9.%d", i%3), fmt.Sprintf("/f%d.php", i%4))
		r.Query = "id=1&p=2"
		r.UserAgent = fmt.Sprintf("ua%d", i%2)
		r.Referrer = fmt.Sprintf("ref%d.com", i%3)
		if i%6 == 0 {
			r.Status = 404
		}
		r.PayloadDigest = fmt.Sprintf("sha1:%d", i%4)
		reqs = append(reqs, r)
	}
	return reqs
}

// A sharded build (partial indexes merged in any order) must equal the
// sequential build — the invariant the streaming engine depends on. Both
// merge paths are covered: shards sharing one Symbols (the engine's
// arrangement, id fast path) and shards with private Symbols (name remap),
// each by Merge and by Absorb, which adopts what the first shard brings
// into the empty index and folds the rest.
func TestIndexMergeEqualsSequentialBuild(t *testing.T) {
	reqs := mergeTestRequests()
	want := canonicalIndex(BuildIndexOf(&Trace{Requests: reqs}, AllFields))

	for _, shared := range []bool{true, false} {
		for _, absorb := range []bool{false, true} {
			name := "private-symbols"
			if shared {
				name = "shared-symbols"
			}
			if absorb {
				name += "/absorb"
			}
			t.Run(name, func(t *testing.T) {
				syms := NewSymbols()
				mk := func() *Index {
					if shared {
						return NewIndexOf(syms, AllFields)
					}
					return NewIndexOf(NewSymbols(), AllFields)
				}
				shards := []*Index{mk(), mk(), mk()}
				for i := range reqs {
					shards[i%3].Add(&reqs[i])
				}
				got := mk()
				// Merge in reverse shard order to exercise commutativity.
				for i := len(shards) - 1; i >= 0; i-- {
					if absorb {
						got.Absorb(shards[i])
					} else {
						got.Merge(shards[i])
					}
				}
				if g := canonicalIndex(got); g != want {
					t.Errorf("merged index diverges from sequential build:\n got: %s\nwant: %s", g, want)
				}
			})
		}
	}
}

// AddKeyed through a front cache builds the index Add builds, across a
// change of Symbols mid-stream (an epoch rotation): the cache starts over
// and re-interns every key by name in the new tables.
func TestAddKeyedThroughInterner(t *testing.T) {
	reqs := mergeTestRequests()
	var in Interner
	for _, split := range []int{0, 17, len(reqs)} {
		parts := []*Index{NewIndexOf(NewSymbols(), AllFields), NewIndexOf(NewSymbols(), AllFields)}
		for i := range reqs {
			idx := parts[0]
			if i >= split {
				idx = parts[1]
			}
			idx.AddKeyed(&reqs[i], in.ServerKey(idx.Syms, &reqs[i]), &in)
		}
		parts[0].Merge(parts[1])
		if got, want := canonicalIndex(parts[0]), canonicalIndex(BuildIndexOf(&Trace{Requests: reqs}, AllFields)); got != want {
			t.Errorf("split %d: cached build diverges:\n got: %s\nwant: %s", split, got, want)
		}
	}
}

// Index.ComputeStats must agree with Trace.ComputeStats whenever every
// request carries a server key (the only requests an Index retains).
func TestIndexComputeStatsMatchesTrace(t *testing.T) {
	tr := &Trace{Name: "idxstats"}
	for i := 0; i < 30; i++ {
		tr.Requests = append(tr.Requests,
			req(fmt.Sprintf("c%d", i%4), fmt.Sprintf("s%d.com", i%6), "8.8.8.8", fmt.Sprintf("/f%d", i%3)))
	}
	want := tr.ComputeStats()
	got := BuildIndex(tr).ComputeStats("idxstats")
	if got != want {
		t.Errorf("index stats %+v != trace stats %+v", got, want)
	}
}
