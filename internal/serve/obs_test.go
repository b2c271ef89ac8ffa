package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"smash/internal/cluster"
	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/wire"
)

// fixtureObserved streams the cmd/smash fixture through a fully
// instrumented engine: registry-backed histograms, lifecycle tracer and
// a store sink, mirroring how cmd/smashd wires a standalone run.
func fixtureObserved(t *testing.T) (*store.Store, *stream.Engine, *obs.Registry, *obs.Tracer) {
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
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	eng, err := stream.New(stream.Config{
		Name:     "servetest",
		Window:   24 * time.Hour,
		Sinks:    []stream.Sink{st},
		Detector: []core.Option{core.WithSeed(1)},
		Metrics:  reg,
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for range eng.Start(tsvSource(t, f)) {
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return st, eng, reg, tr
}

// TestPprofDisabledByDefault: the profiling endpoints expose process
// internals, so they must be absent unless explicitly enabled.
func TestPprofDisabledByDefault(t *testing.T) {
	st, _ := fixtureStore(t)
	h := NewHandler(Config{Store: st})
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without Config.Pprof: status = %d, want 404", rec.Code)
	}

	h = NewHandler(Config{Store: st, Pprof: true})
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof index with Config.Pprof: status = %d, want 200", rec.Code)
	}
	if rec := get(t, h, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline with Config.Pprof: status = %d, want 200", rec.Code)
	}
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promFamily maps a sample name to its metric family: histogram samples
// carry _bucket/_sum/_count suffixes on the family name.
func promFamily(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// lintPrometheus parses one text-format exposition and fails on anything
// malformed: samples without HELP/TYPE, duplicate series or metadata,
// names outside the smash_ prefix, unparsable values, and histograms
// whose cumulative buckets decrease or disagree with _count.
func lintPrometheus(t *testing.T, body string) {
	t.Helper()
	helps := make(map[string]bool)
	types := make(map[string]string)
	series := make(map[string]bool)
	bucketLast := make(map[string]float64) // histogram series prefix -> last cumulative
	bucketInf := make(map[string]float64)  // histogram series prefix -> +Inf cumulative

	for ln, line := range strings.Split(body, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if meta, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, ok := strings.Cut(meta, " ")
			if !ok {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
				continue
			}
			if helps[name] {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helps[name] = true
			continue
		}
		if meta, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(meta, " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("line %d: bad TYPE %q for %s", ln+1, kind, name)
			}
			if !helps[name] {
				t.Errorf("line %d: TYPE %s without preceding HELP", ln+1, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unexpected comment %q", ln+1, line)
			continue
		}

		// Sample: name[{labels}] value
		key := line
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			key = line[:i]
		}
		value, err := strconv.ParseFloat(line[len(key)+1:], 64)
		if err != nil {
			t.Errorf("line %d: unparsable value in %q", ln+1, line)
			continue
		}
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Errorf("line %d: unterminated labels in %q", ln+1, line)
				continue
			}
			name, labels = key[:i], key[i+1:len(key)-1]
		}
		if !metricNameRE.MatchString(name) {
			t.Errorf("line %d: invalid metric name %q", ln+1, name)
		}
		if !strings.HasPrefix(name, "smash_") {
			t.Errorf("line %d: metric %s outside the smash_ prefix", ln+1, name)
		}
		fam := promFamily(name, types)
		if !helps[fam] || types[fam] == "" {
			t.Errorf("line %d: sample %s without HELP/TYPE for family %s", ln+1, name, fam)
		}
		if series[key] {
			t.Errorf("line %d: duplicate series %s", ln+1, key)
		}
		series[key] = true

		// Histogram invariants: cumulative buckets never decrease and the
		// +Inf bucket equals _count.
		if types[fam] == "histogram" {
			prefix := fam + labelsWithoutLe(labels)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if value < bucketLast[prefix] {
					t.Errorf("line %d: %s cumulative bucket decreased", ln+1, key)
				}
				bucketLast[prefix] = value
				if strings.Contains(labels, `le="+Inf"`) {
					bucketInf[prefix] = value
				}
			case strings.HasSuffix(name, "_count"):
				if inf, ok := bucketInf[prefix]; !ok || inf != value {
					t.Errorf("line %d: %s = %g disagrees with le=\"+Inf\" bucket %g", ln+1, key, value, inf)
				}
			}
		}
	}
	if len(series) == 0 {
		t.Fatal("no samples parsed")
	}
}

// labelsWithoutLe strips the le label so one histogram series' buckets,
// sum and count share a key.
func labelsWithoutLe(labels string) string {
	var kept []string
	for _, kv := range strings.Split(labels, ",") {
		if kv != "" && !strings.HasPrefix(kv, `le="`) {
			kept = append(kept, kv)
		}
	}
	sort.Strings(kept)
	return "{" + strings.Join(kept, ",") + "}"
}

// TestMetricsLint scrapes a fully wired standalone handler and lints the
// exposition; it also pins the PR's contract of at least four latency
// histogram families on /metrics.
func TestMetricsLint(t *testing.T) {
	st, eng, reg, tr := fixtureObserved(t)
	h := NewHandler(Config{
		Store:       st,
		EngineStats: eng.Stats,
		Metrics:     reg,
		Tracer:      tr,
	})

	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	lintPrometheus(t, body)

	histograms := []string{
		"smash_ingest_seal_seconds",
		"smash_seal_commit_seconds",
		"smash_window_detect_seconds",
		"smash_pipeline_stage_seconds",
		"smash_sink_consume_seconds",
	}
	for _, name := range histograms {
		if !strings.Contains(body, "# TYPE "+name+" histogram") {
			t.Errorf("metrics missing histogram family %s", name)
		}
		if !strings.Contains(body, name+"_count") {
			t.Errorf("histogram %s has no samples", name)
		}
	}
	for _, want := range []string{
		`smash_sink_consume_seconds_count{sink="store"} 1`,
		`smash_pipeline_stage_seconds_count{stage="mine"} 1`,
		"smash_watermark_lag_seconds",
		"smash_go_goroutines",
		"smash_store_windows_total 1",
		`smash_store_deltas_total{kind="retire"} 0`,
		// Disk-usage gauges: memory-only fixture, so all zero but present.
		"smash_store_snapshot_bytes 0",
		"smash_store_wal_bytes 0",
		"smash_history_bytes 0",
		"smash_history_windows 1",
		"smash_history_gc_runs_total 0",
		"smash_sse_subscribers 0",
		"smash_sse_dropped_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// The disk-usage gauges must report real file sizes on a durable store.
func TestMetricsDiskUsage(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Date(2020, 9, 13, 0, 0, 0, 0, time.UTC)
	w := stream.WindowResult{
		Seq: 0, Start: base, End: base.Add(time.Hour), Requests: 1,
		Deltas: []stream.Delta{{Window: 0, KindName: "appear", Lineage: 0}},
	}
	if err := st.Consume(&w); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Config{Store: st})
	body := get(t, h, "/metrics").Body.String()
	lintPrometheus(t, body)
	for _, name := range []string{"smash_store_snapshot_bytes", "smash_store_wal_bytes", "smash_history_bytes"} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name+" ") && !strings.HasSuffix(line, " 0") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s reports no bytes for a durable store:\n%s", name, body)
		}
	}
}

// TestWindowTraceLive checks the trace endpoint against a real engine
// run: the fixture's single window must carry the full lifecycle.
func TestWindowTraceLive(t *testing.T) {
	st, _, reg, tr := fixtureObserved(t)
	h := NewHandler(Config{Store: st, Metrics: reg, Tracer: tr})

	rec := get(t, h, "/v1/windows/0/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	got := tr.Trace(0)
	phases := make(map[string]bool, len(got.Spans))
	for _, s := range got.Spans {
		phases[s.Phase] = true
	}
	for _, want := range []string{"build", "seal", "detect", "detect:preprocess", "detect:mine", "store"} {
		if !phases[want] {
			t.Errorf("live trace missing phase %q (have %v)", want, phases)
		}
	}

	if rec := get(t, h, "/v1/windows/99/trace"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown window trace status = %d", rec.Code)
	}
	if rec := get(t, h, "/v1/windows/abc/trace"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad seq trace status = %d", rec.Code)
	}
	// Without a tracer the route does not exist at all.
	bare := NewHandler(Config{Store: st})
	if rec := get(t, bare, "/v1/windows/0/trace"); rec.Code != http.StatusNotFound {
		t.Errorf("trace without tracer status = %d", rec.Code)
	}
}

// TestWindowTraceGolden pins the endpoint's JSON shape with a handcrafted
// deterministic trace (live spans carry wall-clock timestamps).
func TestWindowTraceGolden(t *testing.T) {
	st, _ := fixtureStore(t)
	tr := obs.NewTracer(8)
	base := time.Date(2020, 9, 13, 0, 0, 0, 0, time.UTC)
	tr.Window(7, base, base.Add(24*time.Hour))
	tr.Record(7, "build", base.Add(100*time.Millisecond), 2*time.Second, "requests", "26")
	tr.Record(7, "seal", base.Add(2100*time.Millisecond), 40*time.Millisecond, "requests", "26")
	tr.Record(7, "detect:preprocess", base.Add(2140*time.Millisecond), 5*time.Millisecond)
	tr.Record(7, "detect:mine", base.Add(2145*time.Millisecond), 60*time.Millisecond)
	tr.Record(7, "detect", base.Add(2140*time.Millisecond), 80*time.Millisecond)
	tr.Record(7, "store", base.Add(2220*time.Millisecond), 3*time.Millisecond)

	h := NewHandler(Config{Store: st, Tracer: tr})
	rec := get(t, h, "/v1/windows/7/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	checkGolden(t, "window_trace.golden.json", rec.Body.Bytes())
}

// TestMetricsLintClusterRole lints the aggregator-role exposition, whose
// collector set (per-node series, fragment-wait histogram, merged-window
// traces) differs from the standalone role's.
func TestMetricsLintClusterRole(t *testing.T) {
	st := memStore(t)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(8)
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Window: 24 * time.Hour, Expect: 1,
		Detector: []core.Option{core.WithSeed(1)},
		Sinks:    []stream.Sink{st},
		Metrics:  reg,
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Config{Store: st, Aggregator: agg, Metrics: reg, Tracer: tr})

	// Feed one fragment + final marker through the HTTP intake and drain.
	results := agg.Start(context.Background())
	drained := make(chan struct{})
	go func() {
		for range results {
		}
		close(drained)
	}()
	frag := windowFragment("n0", 3, "c1")
	// A hop-stamped fragment exercises the transit histogram and the
	// per-node skew gauge (Submit stamps the receive side).
	frag.Hops = []wire.Hop{{Node: "n0", Role: "ingest", Send: time.Now().UTC(), Attempts: 1}}
	if rec := postFragment(t, h, frag); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}
	if rec := postFragment(t, h, &wire.Fragment{Node: "n0", Window: 3, Final: true}); rec.Code != http.StatusAccepted {
		t.Fatalf("final marker status = %d", rec.Code)
	}
	<-drained

	body := get(t, h, "/metrics").Body.String()
	lintPrometheus(t, body)
	for _, want := range []string{
		"# TYPE smash_cluster_fragment_wait_seconds histogram",
		"smash_cluster_fragment_wait_seconds_count 1",
		`smash_cluster_node_fragments_total{node="n0"} 1`,
		"smash_cluster_fragments_total 1",
		`smash_sink_consume_seconds_count{sink="store"} 1`,
		"# TYPE smash_hop_transit_seconds histogram",
		"smash_hop_transit_seconds_count 1",
		"# TYPE smash_e2e_event_to_seal_seconds histogram",
		"smash_e2e_event_to_seal_seconds_count 1",
		`smash_cluster_node_clock_skew_seconds{node="n0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("cluster metrics missing %q\n%s", want, body)
		}
	}

	// The merged window's trace is served under its emitted seq.
	rec := get(t, h, "/v1/windows/0/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster trace status = %d: %s", rec.Code, rec.Body)
	}
	got := tr.Trace(0)
	phases := make(map[string]bool, len(got.Spans))
	for _, s := range got.Spans {
		phases[s.Phase] = true
	}
	for _, want := range []string{"fragments", "merge", "detect", "store", "hop:n0"} {
		if !phases[want] {
			t.Errorf("cluster trace missing phase %q (have %v)", want, phases)
		}
	}
}
