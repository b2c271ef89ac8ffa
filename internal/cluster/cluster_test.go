package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/stream"
	"smash/internal/synth"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// submitter is the ingest-side surface of an Aggregator (or a test's
// stand-in parent).
type submitter interface {
	Submit(*wire.Fragment) error
}

// ingestHandler is the minimal HTTP face of an aggregator (either kind)
// for tests — internal/serve wires the production /v1/ingest the same
// way.
func ingestHandler(t *testing.T, agg submitter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("ingest read: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		frag, err := wire.DecodeFragment(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := agg.Submit(frag); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
}

// sortedWorld synthesizes a malicious world and returns its requests in
// arrival (timestamp) order as one continuous stream.
func sortedWorld(t *testing.T, days int) []trace.Request {
	t.Helper()
	world, err := synth.Generate(synth.Config{
		Name: "cluster-test", Seed: 7, Days: days,
		Clients: 220, BenignServers: 500, MeanRequests: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []trace.Request
	for _, day := range world.Days {
		all = append(all, day.Requests...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time.Before(all[j].Time) })
	return all
}

// runIngestNode streams one partition through an IndexOnly engine into a
// forwarder pointed at url, then delivers the final marker.
func runIngestNode(t *testing.T, url, node string, shard, of int, reqs []trace.Request, window time.Duration) {
	t.Helper()
	fwd, err := NewForwarder(ForwarderConfig{URL: url, Node: node, Stride: window})
	if err != nil {
		t.Error(err)
		return
	}
	eng, err := stream.New(stream.Config{
		Window:    window,
		Origin:    Epoch,
		IndexOnly: true,
		Sinks:     []stream.Sink{fwd},
	})
	if err != nil {
		t.Error(err)
		return
	}
	src := &ShardSource{Src: &stream.SliceSource{Requests: reqs}, Shard: shard, Of: of}
	for range eng.Start(src) {
	}
	if err := eng.Err(); err != nil {
		t.Errorf("node %s: %v", node, err)
	}
	if err := fwd.CloseContext(context.Background()); err != nil {
		t.Errorf("node %s final marker: %v", node, err)
	}
}

// probeSink is a named no-op sink, so both sides of the parity check have
// a sink span and a sink-latency series to compare.
type probeSink struct{}

func (probeSink) Consume(*stream.WindowResult) error { return nil }
func (probeSink) SinkName() string                   { return "probe" }

// commitSpans returns the sorted set of commit-path span kinds in one
// window trace: detect, detect:<stage> and the probe sink. How the window
// was assembled (build/seal vs fragments/merge/hop) is left out.
func commitSpans(wt *obs.WindowTrace) []string {
	set := make(map[string]bool)
	if wt != nil {
		for _, sp := range wt.Spans {
			if sp.Phase == "detect" || strings.HasPrefix(sp.Phase, "detect:") || sp.Phase == "probe" {
				set[sp.Phase] = true
			}
		}
	}
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// commitCounts returns the _count lines of the three commit-path
// histogram families from a registry's exposition.
func commitCounts(t *testing.T, reg *obs.Registry) []string {
	var lines []string
	for _, line := range strings.Split(promBody(t, reg), "\n") {
		for _, family := range []string{"smash_window_detect_seconds", "smash_pipeline_stage_seconds", "smash_sink_consume_seconds"} {
			if strings.HasPrefix(line, family+"_count") {
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// The tentpole guarantee: a 2-ingest-node + aggregator run over a
// client-hash-partitioned trace produces window fingerprints, reports,
// deltas and the final lineage summary identical to a standalone
// single-node run over the same trace — and, both committing through one
// stream.Committer, the same commit-path spans and latency series.
func TestClusterMatchesStandalone(t *testing.T) {
	const nodes = 2
	window := 24 * time.Hour
	reqs := sortedWorld(t, 3)
	det := []core.Option{core.WithSeed(1)}

	// Standalone reference run, keeping window indexes for fingerprints.
	stdReg, stdTr := obs.NewRegistry(), obs.NewTracer(8)
	std, err := stream.New(stream.Config{
		Name: "eq", Window: window, Origin: Epoch,
		KeepIndex: true, Detector: det,
		Sinks: []stream.Sink{probeSink{}}, Metrics: stdReg, Tracer: stdTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []stream.WindowResult
	for w := range std.Start(&stream.SliceSource{Requests: reqs}) {
		want = append(want, w)
	}
	if err := std.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 {
		t.Fatalf("reference run produced %d windows", len(want))
	}

	// Cluster run: aggregator behind HTTP, two ingest nodes.
	aggReg, aggTr := obs.NewRegistry(), obs.NewTracer(8)
	agg, err := NewAggregator(AggregatorConfig{
		Name: "eq", Window: window, Expect: nodes, Detector: det,
		Sinks: []stream.Sink{probeSink{}}, Metrics: aggReg, Tracer: aggTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ingestHandler(t, agg))
	defer ts.Close()

	results := agg.Start(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runIngestNode(t, ts.URL, fmt.Sprintf("ingest-%d", i), i, nodes, reqs, window)
		}(i)
	}
	var got []stream.WindowResult
	for w := range results {
		got = append(got, w)
	}
	wg.Wait()
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("cluster windows = %d, standalone = %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if g.Seq != w.Seq || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) || g.Requests != w.Requests {
			t.Fatalf("window %d frame diverged: got seq=%d [%s %s) req=%d", i, g.Seq, g.Start, g.End, g.Requests)
		}
		if g.Index.Fingerprint() != w.Index.Fingerprint() {
			t.Errorf("window %d index fingerprint diverged", i)
		}
		wantJSON, _ := json.Marshal(w.Report)
		gotJSON, _ := json.Marshal(g.Report)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("window %d report diverged:\ngot:  %s\nwant: %s", i, gotJSON, wantJSON)
		}
		dWant, _ := json.Marshal(w.Deltas)
		dGot, _ := json.Marshal(g.Deltas)
		if string(dGot) != string(dWant) {
			t.Errorf("window %d deltas diverged:\ngot:  %s\nwant: %s", i, dGot, dWant)
		}
		kWant, kGot := commitSpans(stdTr.Trace(int64(i))), commitSpans(aggTr.Trace(int64(i)))
		if len(kWant) != 2+len(core.StageNames()) || !reflect.DeepEqual(kGot, kWant) {
			t.Errorf("window %d commit-path spans: cluster %v, standalone %v (want detect, every stage, probe)", i, kGot, kWant)
		}
	}
	cWant, cGot := commitCounts(t, stdReg), commitCounts(t, aggReg)
	if len(cWant) != 2+len(core.StageNames()) || !reflect.DeepEqual(cGot, cWant) {
		t.Errorf("commit-path histogram counts:\ncluster:    %v\nstandalone: %v", cGot, cWant)
	}
	for _, line := range cWant {
		if strings.HasSuffix(line, " 0") {
			t.Errorf("commit-path series never observed: %s", line)
		}
	}
	if got, want := agg.Tracker().Summary(), std.Tracker().Summary(); got != want {
		t.Errorf("lineage summary diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}

	st := agg.Stats()
	if st.Nodes != nodes || st.FinishedNodes != nodes {
		t.Errorf("node accounting: %+v", st)
	}
	if st.LateFragments != 0 || st.DuplicateFragments != 0 {
		t.Errorf("unexpected drops: %+v", st)
	}
	top := agg.Topology()
	if len(top) != nodes || top[0].Node != "ingest-0" || !top[0].Finished {
		t.Errorf("topology: %+v", top)
	}
}

// fragFor builds a one-request fragment for direct Submit tests.
func fragFor(node string, window int64, client string) *wire.Fragment {
	idx := trace.NewIndex()
	r := trace.Request{
		Time:   WindowStart(window, 24*time.Hour).Add(time.Hour),
		Client: client, Host: "srv.example.com", ServerIP: "10.0.0.1",
		Path: "/f", Status: 200,
	}
	idx.Add(&r)
	start := WindowStart(window, 24*time.Hour)
	return &wire.Fragment{
		Node: node, Window: window,
		Start: start, End: start.Add(24 * time.Hour),
		Index: idx,
	}
}

func startedAggregator(t *testing.T, cfg AggregatorConfig) (*Aggregator, <-chan stream.WindowResult) {
	t.Helper()
	agg, err := NewAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return agg, agg.Start(context.Background())
}

// A sealed window copies no fragment: it adopts the first one's index (in
// node order) and absorbs the rest, so a one-child window is the child's
// index itself and a two-child one equals a merge into a fresh index.
func TestSealAdoptsFirstFragment(t *testing.T) {
	window := 24 * time.Hour
	one, oneResults := startedAggregator(t, AggregatorConfig{Window: window, Expect: 1})
	oneGot := drainResults(oneResults)
	frag := fragFor("a", 0, "c-a")
	for _, f := range []*wire.Fragment{frag, {Node: "a", Final: true, Window: 0}} {
		if err := one.Submit(f); err != nil {
			t.Fatal(err)
		}
	}
	got := oneGot()
	if len(got) != 1 {
		t.Fatalf("Expect 1: got %d windows, want 1", len(got))
	}
	if got[0].Index != frag.Index {
		t.Error("Expect 1: the window copied its only fragment instead of adopting its index")
	}

	two, twoResults := startedAggregator(t, AggregatorConfig{Window: window, Expect: 2})
	twoGot := drainResults(twoResults)
	for _, f := range []*wire.Fragment{
		fragFor("b", 0, "c-b"), fragFor("a", 0, "c-a"),
		{Node: "a", Final: true, Window: 0}, {Node: "b", Final: true, Window: 0},
	} {
		if err := two.Submit(f); err != nil {
			t.Fatal(err)
		}
	}
	want := trace.NewIndex()
	want.Merge(fragFor("a", 0, "c-a").Index)
	want.Merge(fragFor("b", 0, "c-b").Index)
	got = twoGot()
	if len(got) != 1 {
		t.Fatalf("Expect 2: got %d windows, want 1", len(got))
	}
	if g, w := got[0].Index.Fingerprint(), want.Fingerprint(); g != w {
		t.Errorf("Expect 2 window diverged from a fresh-index merge:\ngot:\n%s\nwant:\n%s", g, w)
	}
}

// The straggler watermark: a lagging node's windows seal without it once
// the lead runs Straggler windows ahead, and its late fragments are
// counted and dropped.
func TestStragglerWatermark(t *testing.T) {
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: 24 * time.Hour, Expect: 2, Straggler: 2,
	})
	var got []stream.WindowResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := range results {
			got = append(got, w)
		}
	}()

	// Node A runs ahead; node B never shows up for window 0.
	for w := int64(0); w <= 3; w++ {
		if err := agg.Submit(fragFor("a", w, "cA")); err != nil {
			t.Fatal(err)
		}
	}
	// With maxSeen=3 and Straggler=2, windows 0 and 1 are force-sealed.
	// B's fragment for window 0 is now late: counted, dropped.
	deadline := time.Now().Add(10 * time.Second)
	for agg.Stats().Windows < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if agg.Stats().Windows < 2 {
		t.Fatalf("straggler policy did not force-seal: %+v", agg.Stats())
	}
	if err := agg.Submit(fragFor("b", 0, "cB")); err != nil {
		t.Fatal(err)
	}
	for w := int64(2); w <= 3; w++ {
		if err := agg.Submit(fragFor("b", w, "cB")); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"a", "b"} {
		if err := agg.Submit(&wire.Fragment{Node: n, Final: true, Window: 3}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}

	if len(got) != 4 {
		t.Fatalf("windows = %d, want 4", len(got))
	}
	st := agg.Stats()
	if st.LateFragments != 1 {
		t.Errorf("late fragments = %d, want 1", st.LateFragments)
	}
	// Window 0 sealed with only A's request; window 2 merged both nodes.
	if got[0].Requests != 1 || got[2].Requests != 2 {
		t.Errorf("requests per window = %d,%d, want 1,2", got[0].Requests, got[2].Requests)
	}
	if top := agg.Topology(); len(top) != 2 || top[1].Node != "b" || top[1].LateFragments != 1 {
		t.Errorf("topology = %+v, want node b with 1 late fragment", top)
	}
}

// Redelivered fragments (at-least-once delivery after a lost ack, or a
// node restarting and resending its last window) are deduplicated.
func TestDuplicateFragmentsDropped(t *testing.T) {
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: 24 * time.Hour, Expect: 2,
	})
	for i := 0; i < 3; i++ { // original + two redeliveries
		if err := agg.Submit(fragFor("a", 0, "cA")); err != nil {
			t.Fatal(err)
		}
	}
	if err := agg.Submit(fragFor("b", 0, "cB")); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if err := agg.Submit(&wire.Fragment{Node: n, Final: true, Window: 0}); err != nil {
			t.Fatal(err)
		}
	}
	var got []stream.WindowResult
	for w := range results {
		got = append(got, w)
	}
	if len(got) != 1 || got[0].Requests != 2 {
		t.Fatalf("windows = %+v, want one window with 2 requests", got)
	}
	if st := agg.Stats(); st.DuplicateFragments != 2 || st.Fragments != 2 {
		t.Errorf("stats = %+v, want 2 duplicates over 2 accepted", st)
	}
}

// An empty partition still participates: its node sends only the final
// marker, and windows seal on the other nodes' data.
func TestEmptyPartitionFinishes(t *testing.T) {
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: 24 * time.Hour, Expect: 2,
	})
	if err := agg.Submit(fragFor("a", 5, "cA")); err != nil {
		t.Fatal(err)
	}
	if err := agg.Submit(&wire.Fragment{Node: "idle", Final: true, Window: -1 << 62}); err != nil {
		t.Fatal(err)
	}
	if err := agg.Submit(&wire.Fragment{Node: "a", Final: true, Window: 5}); err != nil {
		t.Fatal(err)
	}
	var got []stream.WindowResult
	for w := range results {
		got = append(got, w)
	}
	if len(got) != 1 || got[0].Requests != 1 {
		t.Fatalf("windows = %+v", got)
	}
}

// Stop flushes pending windows even when expected nodes never connected.
func TestStopFlushes(t *testing.T) {
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: 24 * time.Hour, Expect: 3,
	})
	if err := agg.Submit(fragFor("a", 1, "cA")); err != nil {
		t.Fatal(err)
	}
	if err := agg.Submit(fragFor("a", 2, "cA")); err != nil {
		t.Fatal(err)
	}
	agg.Stop()
	var got []stream.WindowResult
	for w := range results {
		got = append(got, w)
	}
	if len(got) != 2 {
		t.Fatalf("windows after Stop = %d, want 2", len(got))
	}
	if err := agg.Submit(fragFor("a", 3, "cA")); err == nil {
		t.Error("Submit accepted after stop")
	}
}

func TestAggregatorValidation(t *testing.T) {
	if _, err := NewAggregator(AggregatorConfig{Expect: 1}); err == nil {
		t.Error("zero Window accepted")
	}
	if _, err := NewAggregator(AggregatorConfig{Window: time.Hour}); err == nil {
		t.Error("zero Expect accepted")
	}
	if _, err := NewAggregator(AggregatorConfig{Window: time.Hour, Expect: 1, Straggler: -1}); err == nil {
		t.Error("negative Straggler accepted")
	}
}

// The forwarder retries transient failures with backoff and gives up
// after MaxAttempts; 4xx fails immediately.
func TestForwarderRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()

	fwd, err := NewForwarder(ForwarderConfig{
		URL: ts.URL, Node: "n0", Stride: time.Hour,
		MaxAttempts: 5, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &stream.WindowResult{Start: Epoch.Add(3 * time.Hour), End: Epoch.Add(4 * time.Hour), Index: trace.NewIndex()}
	if err := fwd.Consume(w); err != nil {
		t.Fatalf("consume with retries: %v", err)
	}
	st := fwd.Stats()
	if st.Forwarded != 1 || st.Retries != 2 || st.LastWindow != 3 {
		t.Errorf("stats = %+v", st)
	}

	// Permanent 5xx exhausts the attempt budget.
	calls.Store(-1000)
	if err := fwd.Consume(w); err == nil || !strings.Contains(err.Error(), "after 5 attempts") {
		t.Errorf("permanent failure error = %v", err)
	}

	// 4xx fails fast, without retries.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer bad.Close()
	fwd2, err := NewForwarder(ForwarderConfig{URL: bad.URL, Node: "n0", Stride: time.Hour, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd2.Consume(w); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("4xx error = %v", err)
	}
	if fwd2.Stats().Retries != 0 {
		t.Error("4xx was retried")
	}

	// An index-less window is a configuration error.
	if err := fwd2.Consume(&stream.WindowResult{}); err == nil {
		t.Error("index-less window accepted")
	}
}

func TestForwarderValidation(t *testing.T) {
	if _, err := NewForwarder(ForwarderConfig{Node: "n", Stride: time.Hour}); err == nil {
		t.Error("empty URL accepted")
	}
	if _, err := NewForwarder(ForwarderConfig{URL: "::bogus::", Node: "n", Stride: time.Hour}); err == nil {
		t.Error("bogus URL accepted")
	}
	if _, err := NewForwarder(ForwarderConfig{URL: "http://x", Stride: time.Hour}); err == nil {
		t.Error("empty node accepted")
	}
	if _, err := NewForwarder(ForwarderConfig{URL: "http://x", Node: "n"}); err == nil {
		t.Error("zero stride accepted")
	}
}

// PartitionOf partitions are disjoint, covering, and agree with
// ShardSource filtering.
func TestPartitioning(t *testing.T) {
	reqs := sortedWorld(t, 1)
	const n = 3
	var total int
	seen := make(map[int]int)
	for shard := 0; shard < n; shard++ {
		src := &ShardSource{Src: &stream.SliceSource{Requests: reqs}, Shard: shard, Of: n}
		buf := make([]trace.Request, 64)
		for {
			k, err := src.ReadBatch(buf)
			if err != nil {
				break
			}
			for _, r := range buf[:k] {
				if PartitionOf(r.Client, n) != shard {
					t.Fatalf("shard %d leaked client %q", shard, r.Client)
				}
			}
			seen[shard] += k
			total += k
		}
	}
	if total != len(reqs) {
		t.Errorf("partitions cover %d of %d requests", total, len(reqs))
	}
	if len(seen) != n {
		t.Errorf("only %d of %d partitions non-empty (weak test world?)", len(seen), n)
	}
}

// WindowID/WindowStart are inverses and floor correctly around the epoch.
func TestWindowIDMath(t *testing.T) {
	stride := 6 * time.Hour
	for _, tc := range []struct {
		t    time.Time
		want int64
	}{
		{Epoch, 0},
		{Epoch.Add(5 * time.Hour), 0},
		{Epoch.Add(6 * time.Hour), 1},
		{Epoch.Add(-time.Hour), -1},
		{time.Date(2011, 10, 1, 3, 0, 0, 0, time.UTC), 1317427200 / (6 * 3600)},
	} {
		if got := WindowID(tc.t, stride); got != tc.want {
			t.Errorf("WindowID(%s) = %d, want %d", tc.t, got, tc.want)
		}
	}
	for _, id := range []int64{-3, 0, 7, 61002} {
		if got := WindowID(WindowStart(id, stride), stride); got != id {
			t.Errorf("WindowID(WindowStart(%d)) = %d", id, got)
		}
	}
}

// A tracker with retirement policy threads through the aggregator
// config, mirroring stream.Config.Tracker.
func TestAggregatorCustomTracker(t *testing.T) {
	tk := tracker.New()
	tk.RetireAfter = 7
	agg, err := NewAggregator(AggregatorConfig{Window: time.Hour, Expect: 1, Tracker: tk})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Tracker() != tk {
		t.Error("tracker override ignored")
	}
}

// Topology must list nodes in name order no matter the order their
// fragments arrived — /v1/cluster responses stay deterministic across
// runs.
func TestNodeStatsOrdered(t *testing.T) {
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: 24 * time.Hour, Expect: 3,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range results {
		}
	}()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := agg.Submit(fragFor(n, 0, "c-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := agg.Submit(&wire.Fragment{Node: n, Final: true, Window: 0}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}
	top := agg.Topology()
	if len(top) != 3 || top[0].Node != "alpha" || top[1].Node != "mid" || top[2].Node != "zeta" {
		t.Errorf("topology out of order: %+v", top)
	}
}
