package cluster

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// promBody renders a registry's Prometheus exposition for substring
// asserts.
func promBody(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// spanByPhase finds one span in a window trace by phase name.
func spanByPhase(wt *obs.WindowTrace, phase string) *obs.Span {
	if wt == nil {
		return nil
	}
	for i := range wt.Spans {
		if wt.Spans[i].Phase == phase {
			return &wt.Spans[i]
		}
	}
	return nil
}

// The provenance round trip: a real forwarder stamps its hop onto the
// wire, the aggregator stamps the receive side, and the hop surfaces as a
// stitched trace span, a skew estimate, a transit-histogram sample and a
// topology child — with none of it disturbing the merged output.
func TestHopProvenanceEndToEnd(t *testing.T) {
	window := 24 * time.Hour
	tr := obs.NewTracer(8)
	reg := obs.NewRegistry()
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: window, Expect: 1,
		Detector: []core.Option{core.WithSeed(1)},
		Metrics:  reg, Tracer: tr,
	})
	got := drainResults(results)
	ts := httptest.NewServer(ingestHandler(t, agg))
	defer ts.Close()

	fwd, err := NewForwarder(ForwarderConfig{URL: ts.URL, Node: "n0", Stride: window})
	if err != nil {
		t.Fatal(err)
	}
	idx := trace.NewIndex()
	r := trace.Request{
		Time: Epoch.Add(time.Hour), Client: "c0",
		Host: "h.test", ServerIP: "10.0.0.1", Path: "/", Status: 200,
	}
	idx.Add(&r)
	if err := fwd.Consume(&stream.WindowResult{
		Start: Epoch, End: Epoch.Add(window), Requests: 1, Index: idx,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fwd.CloseContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := got()
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Requests != 1 {
		t.Fatalf("windows = %+v, want one with the forwarded request", res)
	}

	top := agg.Topology()
	if len(top) != 1 || top[0].Node != "n0" || top[0].Role != "ingest" || !top[0].Finished {
		t.Fatalf("topology = %+v, want finished ingest child n0", top)
	}
	if top[0].ClockSkewSeconds == nil {
		t.Error("no skew estimate after a stamped hop")
	} else if s := *top[0].ClockSkewSeconds; s < 0 || s > 5 {
		t.Errorf("loopback skew estimate = %vs, want small and non-negative", s)
	}
	if top[0].SkewWarn {
		t.Error("loopback transit tripped the skew warning")
	}

	span := spanByPhase(tr.Trace(0), "hop:n0")
	if span == nil {
		t.Fatalf("window 0 trace has no hop span: %+v", tr.Trace(0))
	}
	if span.Attrs["from"] != "n0" || span.Attrs["role"] != "ingest" {
		t.Errorf("hop span attrs = %v", span.Attrs)
	}
	if span.Attrs["replay"] != "" {
		t.Error("live hop span marked as replay")
	}

	body := promBody(t, reg)
	for _, want := range []string{
		"smash_hop_transit_seconds_count 1",
		"smash_e2e_event_to_seal_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A hop-free fragment — what a child predating hop provenance sends —
// must still be accepted: it counts toward the node's fragments but yields
// no role, no skew estimate and no hop span.
func TestForwarderDisableHops(t *testing.T) {
	tr := obs.NewTracer(8)
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: 24 * time.Hour, Expect: 1, Tracer: tr,
		Detector: []core.Option{core.WithSeed(1)},
	})
	got := drainResults(results)
	if err := agg.Submit(fragFor("n0", 0, "c0")); err != nil {
		t.Fatal(err)
	}
	if err := agg.Submit(&wire.Fragment{Node: "n0", Final: true, Window: 0}); err != nil {
		t.Fatal(err)
	}
	if res := got(); len(res) != 1 || res[0].Requests != 1 {
		t.Fatalf("windows = %+v, want one with the hop-free fragment's request", res)
	}
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}
	top := agg.Topology()
	if len(top) != 1 || top[0].Node != "n0" || !top[0].Finished || top[0].Fragments != 1 {
		t.Fatalf("topology = %+v, want finished child n0 with one fragment", top)
	}
	if top[0].Role != "" || top[0].ClockSkewSeconds != nil || len(top[0].Children) != 0 {
		t.Errorf("hop-free child n0 = %+v, want no hop-derived state", top[0])
	}
	if span := spanByPhase(tr.Trace(0), "hop:n0"); span != nil {
		t.Errorf("hop span recorded for a hop-free fragment: %+v", span)
	}
}

// A merge tier must pass its children's hop trails through: the fragment
// it forwards carries the child's stamped hop (receive side filled in by
// the merger) plus the merger's own freshly stamped hop, so the root can
// stitch the full path.
func TestMergerForwardsChildHops(t *testing.T) {
	window := 24 * time.Hour
	var mu sync.Mutex
	var forwarded []*wire.Fragment
	parent := httptest.NewServer(ingestHandler(t, submitFunc(func(f *wire.Fragment) error {
		mu.Lock()
		forwarded = append(forwarded, f)
		mu.Unlock()
		return nil
	})))
	defer parent.Close()

	m, fwd := newMergeTier(t, AggregatorConfig{Window: window, Expect: 1},
		ForwarderConfig{URL: parent.URL, Node: "m0"})
	done := drainResults(m.Start(context.Background()))

	frag := fragFor("a", 0, "cA")
	frag.Hops = []wire.Hop{{Node: "a", Role: "ingest", Send: time.Now().UTC().Add(-time.Second), Attempts: 1}}
	if err := m.Submit(frag); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(&wire.Fragment{Node: "a", Final: true, Window: 0}); err != nil {
		t.Fatal(err)
	}
	done()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := fwd.CloseContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	var window0 *wire.Fragment
	for _, f := range forwarded {
		if !f.Final {
			window0 = f
		}
	}
	if window0 == nil {
		t.Fatalf("no window fragment reached the parent: %+v", forwarded)
	}
	if len(window0.Hops) != 2 {
		t.Fatalf("forwarded hops = %+v, want the child's plus the merger's", window0.Hops)
	}
	child, own := window0.Hops[0], window0.Hops[1]
	if child.Node != "a" || child.Role != "ingest" {
		t.Errorf("child hop = %+v", child)
	}
	if child.Recv.IsZero() {
		t.Error("merger did not stamp the child hop's receive time")
	}
	if own.Node != "m0" || own.Role != "merge" || own.Send.IsZero() || !own.Recv.IsZero() {
		t.Errorf("merger's own hop = %+v, want m0/merge with only a send stamp", own)
	}
	// The merger's subtree view mirrors the trail it relays.
	if top := m.Topology(); len(top) != 1 || top[0].Node != "a" || top[0].Role != "ingest" {
		t.Errorf("merger topology = %+v", top)
	}
}

// submitFunc adapts a function to the submitter interface used by
// ingestHandler.
type submitFunc func(*wire.Fragment) error

func (f submitFunc) Submit(frag *wire.Fragment) error { return f(frag) }

// Crash recovery must not corrupt the latency plane: a restarted
// aggregator's replayed fragments keep their original transit stamps, the
// stitched spans they produce are marked replay="true", and the
// end-to-end histogram skips replayed windows instead of double-counting
// a seal the dead process already measured.
func TestTracerAcrossCrashRecovery(t *testing.T) {
	window := 24 * time.Hour
	det := []core.Option{core.WithSeed(1)}
	dir := t.TempDir()
	tk := tracker.New()

	stamped := func(node string, w int64) *wire.Fragment {
		f := fragFor(node, w, "c-"+node)
		f.Hops = []wire.Hop{{Node: node, Role: "ingest", Send: time.Now().UTC().Add(-time.Second), Attempts: 1}}
		return f
	}

	reg1, tr1 := obs.NewRegistry(), obs.NewTracer(8)
	agg1, err := NewAggregator(AggregatorConfig{
		Name: "tcr", Window: window, Expect: 2, Detector: det,
		Tracker: tk, FragDir: dir, AppliedWindows: 0,
		Metrics: reg1, Tracer: tr1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got1 := drainResults(agg1.Start(context.Background()))
	for _, n := range []string{"a", "b"} {
		if err := agg1.Submit(stamped(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "window 0 to seal", func() bool { return agg1.Stats().Windows >= 1 })
	// Node a's window-1 fragment is acked (durable, hop stamps included)
	// but the process dies before the window seals.
	if err := agg1.Submit(stamped("a", 1)); err != nil {
		t.Fatal(err)
	}
	agg1.Abandon()
	if res1 := got1(); len(res1) != 1 {
		t.Fatalf("pre-crash run emitted %d windows, want 1", len(res1))
	}
	if !strings.Contains(promBody(t, reg1), "smash_e2e_event_to_seal_seconds_count 1") {
		t.Error("pre-crash run did not observe its live window's e2e latency")
	}

	reg2, tr2 := obs.NewRegistry(), obs.NewTracer(8)
	agg2, err := NewAggregator(AggregatorConfig{
		Name: "tcr", Window: window, Expect: 2, Detector: det,
		Tracker: tk, FragDir: dir, AppliedWindows: 1,
		Metrics: reg2, Tracer: tr2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got2 := drainResults(agg2.Start(context.Background()))
	// b's window-1 fragment arrives live after the restart.
	if err := agg2.Submit(stamped("b", 1)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if err := agg2.Submit(&wire.Fragment{Node: n, Final: true, Window: 1}); err != nil {
			t.Fatal(err)
		}
	}
	res2 := got2()
	if err := agg2.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res2) != 1 || res2[0].Seq != 1 {
		t.Fatalf("post-crash run emitted %+v, want window seq 1", res2)
	}

	// Window 1's trace stitches both fragments' hops, marking only the
	// replayed one.
	wt := tr2.Trace(1)
	replayedSpan := spanByPhase(wt, "hop:a")
	liveSpan := spanByPhase(wt, "hop:b")
	if replayedSpan == nil || liveSpan == nil {
		t.Fatalf("window 1 trace missing hop spans: %+v", wt)
	}
	if replayedSpan.Attrs["replay"] != "true" {
		t.Errorf("replayed hop span not marked: %v", replayedSpan.Attrs)
	}
	if liveSpan.Attrs["replay"] != "" {
		t.Errorf("live hop span marked as replay: %v", liveSpan.Attrs)
	}
	// The replayed hop's stamps are the original transit times (durable in
	// the fragment log), not the replay wall-clock.
	if d := replayedSpan.DurationSeconds; d < 0.9 {
		t.Errorf("replayed hop transit = %vs, want the original ~1s stamp", d)
	}

	body := promBody(t, reg2)
	if !strings.Contains(body, "smash_e2e_event_to_seal_seconds_count 0") {
		t.Errorf("replayed window leaked into the e2e histogram:\n%s", body)
	}
	// Per-hop transit is still real latency, replayed or not: both hops
	// are observed.
	if !strings.Contains(body, "smash_hop_transit_seconds_count 2") {
		t.Errorf("hop transit histogram miscounted:\n%s", body)
	}
}
