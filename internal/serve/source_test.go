package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smash/internal/source"
	"smash/internal/stream"
	"smash/internal/trace"
)

// postRaw POSTs a raw-event batch to /v1/ingest with a Content-Type.
func postRaw(h http.Handler, ctype, body, query string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/ingest"+query, strings.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// readOne reads a single event from src.
func readOne(src stream.Source) (trace.Request, error) {
	var one [1]trace.Request
	_, err := src.ReadBatch(one[:])
	return one[0], err
}

func drainQueue(t *testing.T, q *source.PushQueue, n int) []string {
	t.Helper()
	var clients []string
	for i := 0; i < n; i++ {
		r, err := readOne(q)
		if err != nil {
			t.Fatalf("queue Read %d: %v", i, err)
		}
		clients = append(clients, r.Client)
	}
	return clients
}

// TestPushIngest drives the raw-event plane end to end: batches parse
// with strict error accounting, land on the queue in order, and ?eos=1
// ends the stream.
func TestPushIngest(t *testing.T) {
	st := memStore(t)
	q := source.NewPushQueue(64)
	h := NewHandler(Config{Store: st, Push: q})

	body := `{"ts":1330560000,"client":"a","host":"h.test","path":"/1","status":200}
not json at all
{"ts":1330560001,"client":"b","host":"h.test","path":"/2","status":200}
`
	rec := postRaw(h, "application/x-ndjson; charset=utf-8", body, "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("push status = %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Status    string `json:"status"`
		Format    string `json:"format"`
		Events    int    `json:"events"`
		Malformed int    `json:"malformed"`
		EOS       bool   `json:"eos"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Format != "jsonl" || resp.Events != 2 || resp.Malformed != 1 {
		t.Errorf("push response = %+v; want jsonl, 2 events, 1 malformed", resp)
	}
	if got := drainQueue(t, q, 2); strings.Join(got, ",") != "a,b" {
		t.Errorf("queued clients = %v; want [a b]", got)
	}

	// A TSV batch on the same listener lands under its own format.
	rec = postRaw(h, "text/tab-separated-values", "1330560002000000000\tc\th.test\t-\t/3\t-\t-\t-\t200\t-\n", "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("tsv push status = %d: %s", rec.Code, rec.Body)
	}
	if got := drainQueue(t, q, 1); got[0] != "c" {
		t.Errorf("tsv push queued %v; want [c]", got)
	}

	// /v1/stats exposes both per-format push counter blocks.
	srec := get(t, h, "/v1/stats")
	var stats struct {
		Sources []source.Stats `json:"sources"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	byFormat := map[string]source.Stats{}
	for _, s := range stats.Sources {
		byFormat[s.Format] = s
	}
	if s := byFormat["jsonl"]; s.Name != "push" || s.Lines != 2 || s.ParseErrors != 1 || s.PushBatches != 1 {
		t.Errorf("jsonl push stats = %+v", s)
	}
	if s := byFormat["tsv"]; s.Lines != 1 || s.PushBatches != 1 {
		t.Errorf("tsv push stats = %+v", s)
	}

	// eos closes the queue: drained, then EOF, and later pushes conflict.
	rec = postRaw(h, "application/x-ndjson", `{"ts":1330560003,"client":"d"}`, "?eos=1")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("eos push status = %d: %s", rec.Code, rec.Body)
	}
	if got := drainQueue(t, q, 1); got[0] != "d" {
		t.Errorf("eos batch queued %v; want [d]", got)
	}
	if _, err := readOne(q); !errors.Is(err, io.EOF) {
		t.Errorf("queue after eos: %v; want EOF", err)
	}
	if rec := postRaw(h, "application/x-ndjson", `{"ts":1330560004,"client":"e"}`, ""); rec.Code != http.StatusConflict {
		t.Errorf("push after eos status = %d; want 409", rec.Code)
	}
}

func TestPushIngestContentTypes(t *testing.T) {
	st := memStore(t)

	// Unknown Content-Type on a push-only node: 415 listing the raw types.
	h := NewHandler(Config{Store: st, Push: source.NewPushQueue(4)})
	rec := postRaw(h, "application/xml", "<x/>", "")
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown type status = %d: %s", rec.Code, rec.Body)
	}
	if body := rec.Body.String(); !strings.Contains(body, "application/x-ndjson") {
		t.Errorf("415 body does not list the raw-event types: %s", body)
	}

	// A node with neither push queue nor aggregator does not mount the
	// intake route at all.
	bare := NewHandler(Config{Store: memStore(t)})
	rec = postRaw(bare, "application/x-ndjson", `{"ts":1}`, "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("push without a queue status = %d; want 404", rec.Code)
	}

	// Access-log bodies honor the PushOptions static host.
	q := source.NewPushQueue(4)
	h = NewHandler(Config{Store: memStore(t), Push: q, PushOptions: source.Options{Host: "static.test"}})
	line := `1.2.3.4 - - [01/Mar/2012:00:00:05 +0000] "GET /x HTTP/1.1" 200 -` + "\n"
	if rec := postRaw(h, "text/x-common-log", line, ""); rec.Code != http.StatusAccepted {
		t.Fatalf("common push status = %d: %s", rec.Code, rec.Body)
	}
	r, err := readOne(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Host != "static.test" || r.Client != "1.2.3.4" {
		t.Errorf("pushed access-log event = %+v; want the static host applied", r)
	}
}

// TestMetricsLintSources lints the exposition of a source-wired handler
// (the standalone and ingest roles' shape) and pins the per-source
// contract: every source's counters and lag live in /v1/stats' sources
// block, keyed by name and format, and /metrics does not repeat them.
func TestMetricsLintSources(t *testing.T) {
	st := memStore(t)
	fileCtrs := source.NewCounters("/var/log/access.log", "combined")
	idleCtrs := source.NewCounters("idle.log", "tsv")
	q := source.NewPushQueue(8)
	h := NewHandler(Config{
		Store: st,
		Push:  q,
		Sources: func() []source.Stats {
			return []source.Stats{fileCtrs.Stats(), idleCtrs.Stats()}
		},
	})

	// Exercise the counters so they carry non-zero values: a file source
	// parsing lines (with one error) plus one accepted push batch.
	f, err := source.New("combined", source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec := source.NewDecoder(strings.NewReader(
		`h.test c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 - "-" "ua"`+"\n garbage \n"), f, fileCtrs)
	for {
		if _, err := dec.Read(); err != nil {
			break
		}
	}
	if rec := postRaw(h, "application/x-ndjson", `{"ts":1330560000,"client":"a"}`, ""); rec.Code != http.StatusAccepted {
		t.Fatalf("push status = %d", rec.Code)
	}
	drainQueue(t, q, 1)

	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	lintPrometheus(t, body)
	if strings.Contains(body, "smash_source_") {
		t.Errorf("/metrics repeats the sources block of /v1/stats:\n%s", body)
	}

	got := make(map[string]source.Stats)
	for _, s := range getStats(t, h).Sources {
		got[s.Name+"/"+s.Format] = s
	}
	if s := got["/var/log/access.log/combined"]; s.Lines != 1 || s.ParseErrors != 1 || s.LagSeconds < 0 {
		t.Errorf("file source = %+v, want 1 line, 1 parse error and a lag", s)
	}
	if s := got["push/jsonl"]; s.Lines != 1 || s.PushBatches != 1 || s.LagSeconds < 0 {
		t.Errorf("push source = %+v, want 1 line, 1 batch and a lag", s)
	}
	// A source that has seen no events keeps its counters (at zero) and
	// reports the -1 lag sentinel, not a fake zero lag.
	if s, ok := got["idle.log/tsv"]; !ok || s.Lines != 0 || s.LagSeconds != -1 {
		t.Errorf("idle source = %+v (present %v), want zero counters and lag -1", s, ok)
	}
}
