package cluster

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"smash/internal/core"
	"smash/internal/stream"
	"smash/internal/wire"
)

// The merge-tier acceptance test: two ingest nodes feeding a merger that
// forwards to a one-child root must produce exactly the windows of the
// same two nodes feeding the root directly — merge is associative, and
// the deterministic per-tier node ordering makes it byte-identical.
func TestMergeTierMatchesDirect(t *testing.T) {
	window := 24 * time.Hour
	det := []core.Option{core.WithSeed(1)}
	reqs := sortedWorld(t, 3)
	ctx := context.Background()

	runNodes := func(url string) {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runIngestNode(t, url, nodeName(i), i, 2, reqs, window)
			}(i)
		}
		wg.Wait()
	}

	// Direct: both nodes feed the root.
	direct, directResults := startedAggregator(t, AggregatorConfig{
		Name: "mt", Window: window, Expect: 2, Detector: det,
	})
	directSrv := httptest.NewServer(ingestHandler(t, direct))
	defer directSrv.Close()
	directGot := drainResults(directResults)
	runNodes(directSrv.URL)
	want := directGot()
	if err := direct.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("direct topology produced no windows")
	}

	// Tiered: both nodes feed a merger, which feeds the root as its only
	// child.
	root, rootResults := startedAggregator(t, AggregatorConfig{
		Name: "mt", Window: window, Expect: 1, Detector: det,
	})
	rootSrv := httptest.NewServer(ingestHandler(t, root))
	defer rootSrv.Close()
	rootGot := drainResults(rootResults)

	merger, fwd := newMergeTier(t, AggregatorConfig{Window: window, Expect: 2},
		ForwarderConfig{URL: rootSrv.URL, Node: "merge-0"})
	mergeSrv := httptest.NewServer(ingestHandler(t, merger))
	defer mergeSrv.Close()
	mergeDone := drainResults(merger.Start(ctx))

	runNodes(mergeSrv.URL)
	mergeDone()
	if err := merger.Err(); err != nil {
		t.Fatal(err)
	}
	if err := fwd.CloseContext(ctx); err != nil {
		t.Fatal(err)
	}

	got := rootGot()
	if err := root.Err(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if gotSum, wantSum := root.Tracker().Summary(), direct.Tracker().Summary(); gotSum != wantSum {
		t.Errorf("lineage summary diverged:\ngot:\n%s\nwant:\n%s", gotSum, wantSum)
	}

	mst := merger.Stats()
	if mst.Nodes != 2 || mst.Windows != len(want) {
		t.Errorf("merger stats: nodes=%d windows=%d, want 2/%d", mst.Nodes, mst.Windows, len(want))
	}
	if fst := fwd.Stats(); fst.Forwarded != len(want)+1 { // windows + final
		t.Errorf("merger forwarded %d fragments, want %d", fst.Forwarded, len(want)+1)
	}
}

func nodeName(i int) string { return "ingest-" + string(rune('0'+i)) }

// The merge tier is at-least-once: a merger that crashed after forwarding
// a window but before committing its frontier re-forwards that window on
// restart, and the parent's (node, window) dedupe keeps the output
// exactly-once. Modeled with two merger incarnations replaying identical
// fragment logs under the same node name.
func TestMergerDuplicateForwardDedupes(t *testing.T) {
	window := 24 * time.Hour
	det := []core.Option{core.WithSeed(1)}
	ctx := context.Background()
	// A fresh set per consumer: an aggregator owns what it is submitted,
	// and absorbs one window's later fragments into its first.
	frags := func() []*wire.Fragment {
		return []*wire.Fragment{
			fragFor("a", 0, "c-a"), fragFor("b", 0, "c-b"),
			{Node: "a", Final: true, Window: 0}, {Node: "b", Final: true, Window: 0},
		}
	}

	// Reference: the same children feeding an aggregator directly.
	ref, refResults := startedAggregator(t, AggregatorConfig{
		Name: "dup", Window: window, Expect: 2, Detector: det,
	})
	refGot := drainResults(refResults)
	for _, f := range frags() {
		if err := ref.Submit(f); err != nil {
			t.Fatal(err)
		}
	}
	want := refGot()
	if len(want) != 1 {
		t.Fatalf("reference produced %d windows, want 1", len(want))
	}

	root, rootResults := startedAggregator(t, AggregatorConfig{
		Name: "dup", Window: window, Expect: 1, Detector: det,
	})
	rootSrv := httptest.NewServer(ingestHandler(t, root))
	defer rootSrv.Close()
	rootGot := drainResults(rootResults)

	// Each incarnation replays the same pre-crash fragment log (built
	// fresh per incarnation: a real crash leaves the files in place, but
	// a clean merger exit garbage-collects them).
	runIncarnation := func() *Forwarder {
		dir := t.TempDir()
		flog, err := OpenFragLog(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frags() {
			if err := flog.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		flog.Close()
		m, fwd := newMergeTier(t, AggregatorConfig{Window: window, Expect: 2, FragDir: dir},
			ForwarderConfig{URL: rootSrv.URL, Node: "m0"})
		for range m.Start(ctx) { // completes on replay alone: the finals are logged
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return fwd
	}

	runIncarnation() // forwards window 0, "crashes" before the final marker
	if err := runIncarnation().CloseContext(ctx); err != nil {
		t.Fatal(err)
	}

	got := rootGot()
	if err := root.Err(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	st := root.Stats()
	// The re-forwarded window is dropped on the duplicate path if it
	// races ahead of the seal, the late path otherwise — either way it
	// never reaches the output.
	if st.DuplicateFragments+st.LateFragments != 1 {
		t.Errorf("root dropped %d dups + %d late, want 1 total (the re-forwarded window)",
			st.DuplicateFragments, st.LateFragments)
	}
	if st.Fragments != 1 || st.Windows != 1 {
		t.Errorf("root stats: fragments=%d windows=%d, want 1/1", st.Fragments, st.Windows)
	}
}

// newMergeTier builds a merge tier the way smashd -role merge does: an
// IndexOnly aggregator whose only sink is a merge-role Forwarder on the
// tier's stride (the window: every test tier is tumbling).
func newMergeTier(t *testing.T, ac AggregatorConfig, fc ForwarderConfig) (*Aggregator, *Forwarder) {
	t.Helper()
	fc.Role, fc.Stride = "merge", ac.Window
	fwd, err := NewForwarder(fc)
	if err != nil {
		t.Fatal(err)
	}
	ac.IndexOnly, ac.Sinks = true, []stream.Sink{fwd}
	agg, err := NewAggregator(ac)
	if err != nil {
		t.Fatal(err)
	}
	return agg, fwd
}

// Merge-tier validation is the aggregator's plus the forward leg's: a
// tier needs both halves, so a pair is refused when either constructor
// refuses its half.
func TestMergerValidation(t *testing.T) {
	up := ForwarderConfig{URL: "http://x", Node: "m", Stride: time.Hour}
	cases := []struct {
		agg AggregatorConfig
		fwd ForwarderConfig
	}{
		{AggregatorConfig{IndexOnly: true}, up},
		{AggregatorConfig{IndexOnly: true, Window: time.Hour}, up},
		{AggregatorConfig{IndexOnly: true, Window: time.Hour, Expect: 1}, ForwarderConfig{Stride: time.Hour}},
		{AggregatorConfig{IndexOnly: true, Window: time.Hour, Expect: 1}, ForwarderConfig{URL: "http://x", Stride: time.Hour}},
		{AggregatorConfig{IndexOnly: true, Window: time.Hour, Expect: 1, Straggler: -1}, up},
	}
	for i, tc := range cases {
		_, aerr := NewAggregator(tc.agg)
		_, ferr := NewForwarder(tc.fwd)
		if aerr == nil && ferr == nil {
			t.Errorf("case %d accepted: %+v", i, tc)
		}
	}
}
