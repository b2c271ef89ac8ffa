package serve

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smash/internal/campaign"
	"smash/internal/cluster"
	"smash/internal/core"
	"smash/internal/source"
	"smash/internal/store"
	"smash/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureStore streams the handcrafted cmd/smash fixture through a
// memory-only store and returns it with the drained engine.
func fixtureStore(t *testing.T) (*store.Store, *stream.Engine) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "cmd", "smash", "testdata", "campaign.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.New(stream.Config{
		Name:     "servetest",
		Window:   24 * time.Hour,
		Sinks:    []stream.Sink{st},
		Detector: []core.Option{core.WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range eng.Start(tsvSource(t, f)) {
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return st, eng
}

// tsvSource streams a TSV trace into an engine.
func tsvSource(t *testing.T, r io.Reader) stream.Source {
	t.Helper()
	f, err := source.New("tsv", source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return source.NewDecoder(r, f, nil)
}

// get performs one request against the handler and returns the response.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// checkGolden compares a response body against testdata/<name>, rewriting
// it under -update.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("%s diverged from golden file\ngot:\n%s\nwant:\n%s", name, body, want)
	}
}

func TestLineagesGolden(t *testing.T) {
	st, eng := fixtureStore(t)
	h := NewHandler(Config{Store: st, EngineStats: eng.Stats})
	rec := get(t, h, "/v1/lineages")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	checkGolden(t, "lineages.golden.json", rec.Body.Bytes())
}

func TestStatsGolden(t *testing.T) {
	st, eng := fixtureStore(t)
	h := NewHandler(Config{Store: st, EngineStats: eng.Stats})
	rec := get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	checkGolden(t, "stats.golden.json", rec.Body.Bytes())
}

func TestLineageDetailAndErrors(t *testing.T) {
	st, _ := fixtureStore(t)
	h := NewHandler(Config{Store: st})

	rec := get(t, h, "/v1/lineages/0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var detail struct {
		ID            int            `json:"id"`
		ServerWindows map[string]int `json:"serverWindows"`
		ClientWindows map[string]int `json:"clientWindows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.ServerWindows["evil-a.test"] != 1 || detail.ClientWindows["c1"] != 1 {
		t.Errorf("detail missing member history: %+v", detail)
	}

	if rec := get(t, h, "/v1/lineages/999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown lineage status = %d", rec.Code)
	}
	if rec := get(t, h, "/v1/lineages/abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id status = %d", rec.Code)
	}
	if rec := get(t, h, "/v1/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown route status = %d", rec.Code)
	}
}

func TestLatestWindowAndHealth(t *testing.T) {
	st, _ := fixtureStore(t)
	h := NewHandler(Config{Store: st, Started: time.Now()})

	rec := get(t, h, "/v1/windows/latest")
	var win struct {
		Seq      int `json:"seq"`
		Requests int `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &win); err != nil {
		t.Fatal(err)
	}
	if win.Requests != 26 {
		t.Errorf("latest window = %+v", win)
	}

	rec = get(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz = %d %s", rec.Code, rec.Body)
	}

	// An empty store has no latest window.
	empty, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, NewHandler(Config{Store: empty}), "/v1/windows/latest"); rec.Code != http.StatusNotFound {
		t.Errorf("empty latest status = %d", rec.Code)
	}
}

func TestMetrics(t *testing.T) {
	st, eng, reg, _ := fixtureObserved(t)
	h := NewHandler(Config{Store: st, EngineStats: eng.Stats, Metrics: reg})

	// Counts live in /v1/stats; /metrics carries the distributions.
	stats := getStats(t, h)
	if s := stats.Store; s.Windows != 1 || s.Requests != 26 || s.Appeared != 1 || s.Lineages-s.RetiredLineages != 1 {
		t.Errorf("store stats = %+v, want 1 window, 26 requests, 1 appear, 1 active lineage", s)
	}
	if stats.Engine == nil || stats.Engine.Events != 26 {
		t.Errorf("engine stats = %+v, want 26 events", stats.Engine)
	}

	rec := get(t, h, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{
		`smash_pipeline_stage_seconds_sum{stage="mine"} `,
		`smash_pipeline_stage_seconds_count{stage="mine"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
}

// statsResponse is the /v1/stats JSON shape.
type statsResponse struct {
	Store   store.Stats    `json:"store"`
	Engine  *stream.Stats  `json:"engine"`
	Cluster *cluster.Stats `json:"cluster"`
	Sources []source.Stats `json:"sources"`
}

// getStats fetches and decodes /v1/stats.
func getStats(t *testing.T, h http.Handler) statsResponse {
	t.Helper()
	var out statsResponse
	if err := json.Unmarshal(get(t, h, "/v1/stats").Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// The acceptance property: /v1/lineages reflects every window as soon as
// the sink consumed it — live state during a run, also under concurrent
// readers (exercised by go test -race).
func TestServesLiveStateBetweenWindows(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Config{Store: st})

	count := func() int {
		var out struct {
			Count int `json:"count"`
		}
		rec := get(t, h, "/v1/lineages")
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Count
	}

	if count() != 0 {
		t.Fatal("lineages before any window")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					get(t, h, "/v1/lineages")
					get(t, h, "/v1/stats")
				}
			}
		}()
	}

	days := windowResults(t)
	for i, w := range days {
		if err := st.Consume(&w); err != nil {
			t.Fatal(err)
		}
		if got := count(); got < 1 {
			t.Errorf("after window %d: lineage count = %d", i, got)
		}
	}
	close(stop)
	wg.Wait()
	if st.Stats().Windows != len(days) {
		t.Errorf("windows = %d", st.Stats().Windows)
	}
}

// windowResults fabricates two window results continuing one lineage.
func windowResults(t *testing.T) []stream.WindowResult {
	t.Helper()
	base := time.Date(2020, 9, 13, 0, 0, 0, 0, time.UTC)
	var out []stream.WindowResult
	for i := 0; i < 2; i++ {
		report := &core.Report{Campaigns: []campaign.Campaign{{
			ID:      0,
			Servers: []string{"evil-a.test", "evil-b.test"},
			Clients: []string{"c1", "c2"},
			Kind:    campaign.KindCommunication,
		}}}
		out = append(out, stream.WindowResult{
			Seq:      i,
			Start:    base.AddDate(0, 0, i),
			End:      base.AddDate(0, 0, i+1),
			Requests: 10,
			Report:   report,
		})
	}
	return out
}
