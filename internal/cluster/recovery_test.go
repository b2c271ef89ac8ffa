package cluster

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smash/internal/core"
	"smash/internal/stream"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// drainResults collects an aggregator's output concurrently; call the
// returned func after the channel has closed to get everything emitted.
func drainResults(results <-chan stream.WindowResult) func() []stream.WindowResult {
	var (
		got  []stream.WindowResult
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		for w := range results {
			got = append(got, w)
		}
	}()
	return func() []stream.WindowResult {
		<-done
		return got
	}
}

// assertSameResults compares two emitted-window sequences field by field:
// frame, index fingerprint, report JSON, delta JSON.
func assertSameResults(t *testing.T, got, want []stream.WindowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("windows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if g.Seq != w.Seq || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) || g.Requests != w.Requests {
			t.Fatalf("window %d frame diverged: got seq=%d [%s %s) req=%d, want seq=%d req=%d",
				i, g.Seq, g.Start, g.End, g.Requests, w.Seq, w.Requests)
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
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The tentpole guarantee: an aggregator killed (kill -9 equivalent:
// Abandon, no flush, no log cleanup) and restarted on the same fragment
// log resumes byte-identical to a run that never crashed — including
// fragments that were acked but never reached the loop, duplicates
// resubmitted across the restart, and continued window numbering.
func TestAggregatorCrashRecovery(t *testing.T) {
	window := 24 * time.Hour
	det := []core.Option{core.WithSeed(1)}
	ctx := context.Background()

	// Reference run, never crashed.
	ref, refResults := startedAggregator(t, AggregatorConfig{
		Name: "cr", Window: window, Expect: 2, Detector: det,
	})
	refGot := drainResults(refResults)
	for w := int64(0); w <= 1; w++ {
		for _, n := range []string{"a", "b"} {
			if err := ref.Submit(fragFor(n, w, "c-"+n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range []string{"a", "b"} {
		if err := ref.Submit(&wire.Fragment{Node: n, Final: true, Window: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := refGot()
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("reference run produced %d windows", len(want))
	}

	// Crashing run: same fragments, killed after window 0 committed and
	// node a's window-1 fragment was acked (logged but maybe unprocessed).
	dir := t.TempDir()
	tk := tracker.New() // stands in for store.Restore across the restart
	agg1, err := NewAggregator(AggregatorConfig{
		Name: "cr", Window: window, Expect: 2, Detector: det,
		Tracker: tk, FragDir: dir, AppliedWindows: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	got1 := drainResults(agg1.Start(ctx))
	for _, n := range []string{"a", "b"} {
		if err := agg1.Submit(fragFor(n, 0, "c-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "window 0 to seal", func() bool { return agg1.Stats().Windows >= 1 })
	if err := agg1.Submit(fragFor("a", 1, "c-a")); err != nil {
		t.Fatal(err)
	}
	agg1.Abandon()
	res1 := got1()
	if len(res1) != 1 {
		t.Fatalf("pre-crash run emitted %d windows, want 1", len(res1))
	}
	if err := agg1.Submit(fragFor("b", 1, "c-b")); err == nil {
		t.Error("Submit accepted after Abandon")
	}

	// Restart on the same state: the tracker carries over exactly as a
	// store restore would, and AppliedWindows reports what the sink saw.
	agg2, err := NewAggregator(AggregatorConfig{
		Name: "cr", Window: window, Expect: 2, Detector: det,
		Tracker: tk, FragDir: dir, AppliedWindows: len(res1),
	})
	if err != nil {
		t.Fatal(err)
	}
	got2 := drainResults(agg2.Start(ctx))
	// At-least-once across the restart: node a redelivers the fragment
	// the dead process already acked; it must dedupe to exactly-once.
	if err := agg2.Submit(fragFor("a", 1, "c-a")); err != nil {
		t.Fatal(err)
	}
	if err := agg2.Submit(fragFor("b", 1, "c-b")); err != nil {
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

	assertSameResults(t, append(res1, res2...), want)
	if got, wantSum := tk.Summary(), ref.Tracker().Summary(); got != wantSum {
		t.Errorf("lineage summary diverged:\ngot:\n%s\nwant:\n%s", got, wantSum)
	}
	st := agg2.Stats()
	if st.Replayed != 1 {
		t.Errorf("replayed = %d, want 1 (node a's acked window-1 fragment)", st.Replayed)
	}
	if st.DuplicateFragments != 1 {
		t.Errorf("duplicates = %d, want 1 (the redelivery)", st.DuplicateFragments)
	}

	// A clean completion leaves the log directory empty.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("fragment log not cleaned: %s left behind", e.Name())
	}
}

// The redo path: a crash after the frontier committed but before the
// sink applied the window (frontier one ahead of AppliedWindows) re-runs
// that window from its surviving log file, byte-identical.
func TestAggregatorRedoWindow(t *testing.T) {
	window := 24 * time.Hour
	det := []core.Option{core.WithSeed(1)}

	ref, refResults := startedAggregator(t, AggregatorConfig{
		Name: "redo", Window: window, Expect: 2, Detector: det,
	})
	refGot := drainResults(refResults)
	// A fresh set per consumer: an aggregator owns what it is submitted,
	// and absorbs one window's later fragments into its first.
	frags := func() []*wire.Fragment {
		return []*wire.Fragment{
			fragFor("a", 0, "c-a"), fragFor("b", 0, "c-b"),
			fragFor("a", 1, "c-a"), fragFor("b", 1, "c-b"),
			{Node: "a", Final: true, Window: 1}, {Node: "b", Final: true, Window: 1},
		}
	}
	for _, f := range frags() {
		if err := ref.Submit(f); err != nil {
			t.Fatal(err)
		}
	}
	want := refGot()
	if len(want) != 2 {
		t.Fatalf("reference run produced %d windows", len(want))
	}

	// Hand-craft the crash state: every fragment acked (logged), frontier
	// says window 0 sealed as emission 1, but the sink never saw it —
	// exactly what a kill between Commit and the sink leaves behind.
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
	if err := flog.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	flog.Close()

	agg, err := NewAggregator(AggregatorConfig{
		Name: "redo", Window: window, Expect: 2, Detector: det,
		FragDir: dir, AppliedWindows: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything needed is in the log: the run completes on replay alone.
	got := drainResults(agg.Start(context.Background()))()
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if st := agg.Stats(); st.Replayed != 6 {
		t.Errorf("replayed = %d, want 6", st.Replayed)
	}
}

// A frontier that disagrees with the sink by more than one window is a
// mixed-up state dir, and fatal.
func TestFrontierMismatchFatal(t *testing.T) {
	dir := t.TempDir()
	flog, err := OpenFragLog(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := flog.Commit(5, 5); err != nil {
		t.Fatal(err)
	}
	flog.Close()

	agg, err := NewAggregator(AggregatorConfig{
		Window: 24 * time.Hour, Expect: 1, FragDir: dir, AppliedWindows: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	drainResults(agg.Start(context.Background()))()
	if err := agg.Err(); err == nil || !strings.Contains(err.Error(), "frontier") {
		t.Errorf("mismatched frontier error = %v", err)
	}
	if err := agg.Submit(fragFor("a", 0, "cA")); err == nil {
		t.Error("Submit accepted after fatal recovery error")
	}
}

// FragLog heals torn tails at open and excludes the torn frame from
// replay — the WAL discipline, applied to fragments.
func TestFragLogTornTail(t *testing.T) {
	dir := t.TempDir()
	flog, err := OpenFragLog(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := flog.Append(fragFor("a", 3, "cA")); err != nil {
		t.Fatal(err)
	}
	if err := flog.Append(fragFor("b", 3, "cB")); err != nil {
		t.Fatal(err)
	}
	flog.Close()

	// Tear the tail: append half a frame, as a crash mid-write would.
	path := filepath.Join(dir, "w3.frag")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := wire.AppendFrame(nil, wire.EncodeFragment(fragFor("c", 3, "cC")))
	if err := os.WriteFile(path, append(append([]byte(nil), intact...), torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenFragLog(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []string
	if err := reopened.Replay(func(f *wire.Fragment) error {
		nodes = append(nodes, f.Node)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Errorf("replayed nodes = %v, want [a b]", nodes)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(len(intact)) {
		t.Errorf("torn tail not truncated: size=%v err=%v, want %d", info.Size(), err, len(intact))
	}
	reopened.Close()
}

// Append refuses fragments for windows behind the committed frontier:
// they are late by definition, and logging them would resurrect removed
// window files.
func TestFragLogFrontierFloor(t *testing.T) {
	dir := t.TempDir()
	flog, err := OpenFragLog(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := flog.Commit(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := flog.Append(fragFor("a", 3, "cA")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "w3.frag")); !os.IsNotExist(err) {
		t.Error("fragment behind the frontier was logged")
	}
	if err := flog.Append(fragFor("a", 5, "cA")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "w5.frag")); err != nil {
		t.Errorf("fragment at the frontier not logged: %v", err)
	}
	flog.Close()
}

// A node that keeps streaming after a peer finished is flagged overdue —
// the /v1/cluster signal that a final marker may have been lost.
func TestFinalOverdue(t *testing.T) {
	agg, results := startedAggregator(t, AggregatorConfig{
		Window: 24 * time.Hour, Expect: 2,
	})
	got := drainResults(results)
	if err := agg.Submit(fragFor("a", 0, "cA")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node a to join", func() bool { return agg.Stats().Nodes == 1 })
	for _, n := range agg.Topology() {
		if n.FinalOverdue {
			t.Errorf("node %s overdue with no peer finished", n.Node)
		}
		if n.LastSeen.IsZero() {
			t.Errorf("node %s has no LastSeen stamp", n.Node)
		}
	}
	if err := agg.Submit(&wire.Fragment{Node: "b", Final: true, Window: -1 << 62}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node b to finish", func() bool { return agg.Stats().FinishedNodes == 1 })
	for _, n := range agg.Topology() {
		if overdue := n.Node == "a"; n.FinalOverdue != overdue {
			t.Errorf("node %s FinalOverdue = %v, want %v", n.Node, n.FinalOverdue, overdue)
		}
	}
	if err := agg.Submit(&wire.Fragment{Node: "a", Final: true, Window: 0}); err != nil {
		t.Fatal(err)
	}
	got()
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}
}

// Full jitter: every retry delay is drawn from [0, cap) with the cap
// doubling per attempt up to maxBackoff.
func TestBackoffJitterBounds(t *testing.T) {
	fwd, err := NewForwarder(ForwarderConfig{
		URL: "http://x", Node: "n", Stride: time.Hour, Backoff: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 10; attempt++ {
		limit := 100 * time.Millisecond << (attempt - 1)
		if limit > maxBackoff || limit <= 0 {
			limit = maxBackoff
		}
		for i := 0; i < 50; i++ {
			if d := fwd.backoffFor(attempt); d < 0 || d >= limit {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, limit)
			}
		}
	}
}
