package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smash/internal/core"
	"smash/internal/herd"
	"smash/internal/obs"
	"smash/internal/similarity"
	"smash/internal/synth"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// collect drains the engine and returns every window in emission order.
func collect(t *testing.T, eng *Engine, src Source) []WindowResult {
	t.Helper()
	var out []WindowResult
	for r := range eng.Start(src) {
		out = append(out, r)
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("engine error: %v", err)
	}
	return out
}

func evReq(t time.Time, client, host, path string) trace.Request {
	return trace.Request{Time: t, Client: client, Host: host, ServerIP: "9.9.9.9", Path: path, Status: 200}
}

func at(hour, min int) time.Time {
	return time.Date(2011, 10, 1, hour, min, 0, 0, time.UTC)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero Window accepted")
	}
	if _, err := New(Config{Window: time.Hour, Stride: 2 * time.Hour}); err == nil {
		t.Error("Stride > Window accepted")
	}
	if _, err := New(Config{Window: time.Hour, Watermark: -time.Minute}); err == nil {
		t.Error("negative Watermark accepted")
	}
	if _, err := New(Config{Window: time.Hour}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// Out-of-order events within the watermark land in their window; events
// older than every open window are dropped and counted.
func TestOutOfOrderWatermark(t *testing.T) {
	events := []trace.Request{
		evReq(at(9, 10), "c1", "a.com", "/x"),
		evReq(at(9, 50), "c1", "b.com", "/x"),
		evReq(at(10, 5), "c2", "c.com", "/x"),
		// 40 minutes out of order, but the 30m watermark holds window
		// [09:00,10:00) open, so this still counts.
		evReq(at(9, 40), "c2", "d.com", "/x"),
		// Jumps the watermark past 11:00, sealing the first two windows.
		evReq(at(11, 30), "c3", "e.com", "/x"),
		// Beyond the watermark: every containing window sealed. Dropped.
		evReq(at(9, 55), "c3", "f.com", "/x"),
	}
	eng, err := New(Config{Window: time.Hour, Watermark: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, eng, &SliceSource{Requests: events})
	if len(got) != 3 {
		t.Fatalf("windows = %d, want 3", len(got))
	}
	wantReqs := []int{3, 1, 1}
	for i, w := range got {
		if w.Seq != i {
			t.Errorf("window %d has Seq %d", i, w.Seq)
		}
		if w.Requests != wantReqs[i] {
			t.Errorf("window %d requests = %d, want %d", i, w.Requests, wantReqs[i])
		}
	}
	if got[0].Start != at(9, 0) || got[0].End != at(10, 0) {
		t.Errorf("window 0 bounds [%v, %v)", got[0].Start, got[0].End)
	}
	stats := eng.Stats()
	if stats.Events != 5 || stats.Late != 1 {
		t.Errorf("stats = %+v, want Events=5 Late=1", stats)
	}
}

// A gap in the event stream yields empty windows, emitted in order so the
// tracker's window clock keeps counting.
func TestEmptyWindows(t *testing.T) {
	events := []trace.Request{
		evReq(at(9, 10), "c1", "a.com", "/x"),
		evReq(at(12, 10), "c1", "a.com", "/x"),
	}
	eng, err := New(Config{Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, eng, &SliceSource{Requests: events})
	if len(got) != 4 {
		t.Fatalf("windows = %d, want 4", len(got))
	}
	for i, wantEmpty := range []bool{false, true, true, false} {
		if got[i].Empty() != wantEmpty {
			t.Errorf("window %d Empty = %v, want %v", i, got[i].Empty(), wantEmpty)
		}
		if wantEmpty && got[i].Report != nil {
			t.Errorf("window %d: empty window carries a report", i)
		}
	}
	if stats := eng.Stats(); stats.Windows != 4 || stats.EmptyWindows != 2 {
		t.Errorf("stats = %+v, want Windows=4 EmptyWindows=2", stats)
	}
	if eng.Tracker().Day() != 4 {
		t.Errorf("tracker day = %d, want 4 (empty windows must advance the clock)", eng.Tracker().Day())
	}
}

// With sliding windows an interior event lands in every overlapping window,
// and an event exactly on a boundary belongs to the starting window only
// (half-open [start, end) semantics).
func TestSlidingWindowBoundary(t *testing.T) {
	events := []trace.Request{
		evReq(at(10, 0), "c1", "a.com", "/x"),
		evReq(at(11, 0), "c1", "b.com", "/x"),
		evReq(at(12, 0), "c1", "c.com", "/x"),
	}
	eng, err := New(Config{Window: 2 * time.Hour, Stride: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, eng, &SliceSource{Requests: events})
	if len(got) != 3 {
		t.Fatalf("windows = %d, want 3", len(got))
	}
	// [10,12): 10:00 + 11:00. [11,13): 11:00 + 12:00 (the 11:00 boundary
	// event is in both sliding windows). [12,14): 12:00 only — the 12:00
	// event is excluded from [10,12) by the half-open boundary.
	wantReqs := []int{2, 2, 1}
	for i, w := range got {
		if w.Requests != wantReqs[i] {
			t.Errorf("window %d [%v,%v) requests = %d, want %d",
				i, w.Start, w.End, w.Requests, wantReqs[i])
		}
	}
	if got[1].Start != at(11, 0) || got[1].End != at(13, 0) {
		t.Errorf("window 1 bounds [%v, %v)", got[1].Start, got[1].End)
	}
}

// blockingSource yields its requests then blocks, signalling ingested once
// the engine has come back for more — at which point every request has
// entered the engine.
type blockingSource struct {
	reqs     []trace.Request
	pos      int
	ingested chan struct{}
	release  chan struct{}
	once     sync.Once
}

func (s *blockingSource) ReadBatch(dst []trace.Request) (int, error) {
	if s.pos < len(s.reqs) {
		n := copy(dst, s.reqs[s.pos:])
		s.pos += n
		return n, nil
	}
	s.once.Do(func() { close(s.ingested) })
	<-s.release
	return 0, io.EOF
}

// Stop must seal and emit in-flight windows even when the watermark never
// advanced far enough to seal them.
func TestCleanShutdownDrainsOpenWindows(t *testing.T) {
	src := &blockingSource{
		reqs: []trace.Request{
			evReq(at(9, 10), "c1", "a.com", "/x"),
			evReq(at(9, 20), "c2", "a.com", "/x"),
			evReq(at(9, 30), "c1", "b.com", "/x"),
		},
		ingested: make(chan struct{}),
		release:  make(chan struct{}),
	}
	defer close(src.release)
	eng, err := New(Config{Window: time.Hour, Watermark: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	out := eng.Start(src)
	<-src.ingested
	eng.Stop()
	var got []WindowResult
	for r := range out {
		got = append(got, r)
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("engine error: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("windows = %d, want 1 (drained on Stop)", len(got))
	}
	if got[0].Requests != 3 {
		t.Errorf("drained window requests = %d, want 3", got[0].Requests)
	}
	eng.Stop() // idempotent
}

// lineageSnapshot is the comparable essence of a tracker lineage.
type lineageSnapshot struct {
	ID, FirstDay, LastDay, DaysActive, AgileDays int
	Servers                                      map[string]int
	Clients                                      map[string]int
}

func snapshotLineages(tk *tracker.Tracker) []lineageSnapshot {
	var out []lineageSnapshot
	for _, l := range tk.Lineages() {
		out = append(out, lineageSnapshot{
			ID: l.ID, FirstDay: l.FirstDay, LastDay: l.LastDay,
			DaysActive: l.DaysActive, AgileDays: l.AgileDays,
			Servers: l.Servers, Clients: l.Clients,
		})
	}
	return out
}

// deltaSummary strips a window stream down to its observable decisions.
func deltaSummary(windows []WindowResult) []string {
	var out []string
	for _, w := range windows {
		for _, d := range w.Deltas {
			out = append(out, fmt.Sprintf("w%d %s L%d s%d c%d new%d",
				d.Window, d.Kind, d.Lineage, d.Servers, d.Clients, len(d.NewServers)))
		}
	}
	return out
}

// Replaying a 4-day world through the streaming engine with 1-day tumbling
// windows must reproduce the batch Pipeline + tracker loop exactly — same
// lineage count, same per-lineage server/client histories — and the worker
// pool size must change wall-clock only, never output.
func TestStreamMatchesBatchPipeline(t *testing.T) {
	world, err := synth.Generate(synth.Config{
		Name: "stream-eq", Seed: 7, Days: 4,
		Clients: 250, BenignServers: 600, MeanRequests: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The default detector, and one whose query dimension makes every
	// index keep the query field.
	for _, tc := range []struct {
		name   string
		extra  []core.Option
		fields trace.Fields
	}{
		{"default", nil, 0},
		{"query", []core.Option{core.WithExtraDimension(herd.QueryDimension(similarity.Options{}))}, trace.FieldQueries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			detOpts := append([]core.Option{
				core.WithSeed(1),
				core.WithWhois(world.Whois),
				core.WithProber(world.Prober),
			}, tc.extra...)

			// Batch reference: one Pipeline run per day trace, tracked across days.
			batch := tracker.New()
			det := core.NewPipeline(detOpts...)
			for _, day := range world.Days {
				report, err := det.RunTrace(context.Background(), day)
				if err != nil {
					t.Fatal(err)
				}
				batch.Observe(report)
			}
			want := snapshotLineages(batch)
			if len(want) == 0 {
				t.Fatal("batch reference produced no lineages; world too small to test equivalence")
			}

			var all []trace.Request
			for _, day := range world.Days {
				all = append(all, day.Requests...)
			}

			run := func(workers, shards int) ([]WindowResult, *Engine) {
				eng, err := New(Config{
					Window: 24 * time.Hour, Workers: workers, Shards: shards,
					Detector: detOpts,
				})
				if err != nil {
					t.Fatal(err)
				}
				return collect(t, eng, &SliceSource{Requests: all}), eng
			}

			windows1, eng1 := run(1, 1)
			if got := snapshotLineages(eng1.Tracker()); !reflect.DeepEqual(got, want) {
				t.Errorf("streamed lineages diverge from batch:\n got %+v\nwant %+v", got, want)
			}
			if len(windows1) != 4 {
				t.Errorf("windows = %d, want 4", len(windows1))
			}
			for i, w := range windows1 {
				if w.Empty() {
					t.Errorf("window %d unexpectedly empty", i)
				}
				wantStats := world.Days[i].ComputeStats()
				if w.Requests != wantStats.Requests {
					t.Errorf("window %d requests = %d, want %d", i, w.Requests, wantStats.Requests)
				}
				if got := w.Report.TraceStats; got.Servers != wantStats.Servers || got.Clients != wantStats.Clients {
					t.Errorf("window %d servers, clients = %d, %d, want %d, %d", i, got.Servers, got.Clients, wantStats.Servers, wantStats.Clients)
				}
			}

			// Per-day campaign sets must match the batch reports exactly.
			batchDet := core.NewPipeline(detOpts...)
			for i, w := range windows1 {
				ref, err := batchDet.RunTrace(context.Background(), world.Days[i])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(campaignKeys(ref), campaignKeys(w.Report)) {
					t.Errorf("window %d campaigns diverge from batch day %d", i, i)
				}
				if w.Report.RawIndex.Fields() != tc.fields || w.Report.RawIndex.Fingerprint() != ref.RawIndex.Fingerprint() {
					t.Errorf("window %d index (fields %03b) diverges from batch day %d (fields %03b)", i, w.Report.RawIndex.Fields(), i, tc.fields)
				}
			}

			// More workers and shards: identical lineages and identical deltas.
			windows4, eng4 := run(4, 8)
			if got := snapshotLineages(eng4.Tracker()); !reflect.DeepEqual(got, want) {
				t.Error("worker pool size changed lineage output")
			}
			if !reflect.DeepEqual(deltaSummary(windows1), deltaSummary(windows4)) {
				t.Errorf("worker pool size changed delta stream:\n 1: %v\n 4: %v",
					deltaSummary(windows1), deltaSummary(windows4))
			}
		})
	}
}

func campaignKeys(r *core.Report) []string {
	var out []string
	for _, c := range r.AllCampaigns() {
		out = append(out, fmt.Sprintf("%v|%v", c.Servers, c.Clients))
	}
	return out
}

// The delta stream starts every lineage with an appear.
func TestDeltasStartWithAppear(t *testing.T) {
	world, err := synth.Generate(synth.Config{
		Name: "deltas", Seed: 11, Days: 2,
		Clients: 250, BenignServers: 600, MeanRequests: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []trace.Request
	for _, day := range world.Days {
		all = append(all, day.Requests...)
	}
	eng, err := New(Config{
		Window:   24 * time.Hour,
		Detector: []core.Option{core.WithSeed(1), core.WithWhois(world.Whois), core.WithProber(world.Prober)},
	})
	if err != nil {
		t.Fatal(err)
	}
	windows := collect(t, eng, &SliceSource{Requests: all})
	seen := make(map[int]bool)
	deltas := 0
	for _, w := range windows {
		for _, d := range w.Deltas {
			deltas++
			if !seen[d.Lineage] && d.Kind != Appear {
				t.Errorf("lineage %d first delta is %s, want appear", d.Lineage, d.Kind)
			}
			seen[d.Lineage] = true
			if d.KindName != d.Kind.String() {
				t.Errorf("KindName %q != Kind %q", d.KindName, d.Kind)
			}
		}
	}
	if deltas == 0 {
		t.Fatal("no deltas emitted over a 2-day malicious world")
	}
}

func TestMultiSource(t *testing.T) {
	a := &SliceSource{Requests: []trace.Request{evReq(at(9, 0), "c", "a.com", "/")}}
	b := &SliceSource{Requests: []trace.Request{
		evReq(at(9, 1), "c", "b.com", "/"),
		evReq(at(9, 2), "c", "c.com", "/"),
	}}
	m := &MultiSource{Sources: []Source{a, &SliceSource{}, b}}
	var hosts []string
	var batches []int
	buf := make([]trace.Request, 8)
	for {
		n, err := m.ReadBatch(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, n)
		for _, r := range buf[:n] {
			hosts = append(hosts, r.Host)
		}
	}
	if !reflect.DeepEqual(hosts, []string{"a.com", "b.com", "c.com"}) {
		t.Errorf("hosts = %v", hosts)
	}
	// A batch never spans two sources: the next one might block.
	if !reflect.DeepEqual(batches, []int{1, 2}) {
		t.Errorf("batches = %v, want [1 2]", batches)
	}
}

// dayEvents builds a simple two-day event feed: enough traffic per day for
// a non-empty detection window, with day 2 sealing day 1's window.
func dayEvents() []trace.Request {
	var all []trace.Request
	for day := 0; day < 2; day++ {
		for hour := 1; hour < 6; hour++ {
			for _, c := range []string{"c1", "c2", "c3"} {
				for _, h := range []string{"a.com", "b.com", "c.com"} {
					ts := time.Date(2011, 10, 1+day, hour, 0, 0, 0, time.UTC)
					all = append(all, evReq(ts, c, h, "/x"))
				}
			}
		}
	}
	return all
}

// TestStartContextCancelledUpFront: a context cancelled before Start acts
// as an immediate hard shutdown — the output channel still closes, every
// emitted window is report-less, and Err reports the context error.
func TestStartContextCancelledUpFront(t *testing.T) {
	eng, err := New(Config{Window: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	done := make(chan []WindowResult, 1)
	go func() {
		var out []WindowResult
		for r := range eng.StartContext(ctx, &SliceSource{Requests: dayEvents()}) {
			out = append(out, r)
		}
		done <- out
	}()
	select {
	case out := <-done:
		for _, w := range out {
			if w.Report != nil {
				t.Errorf("window %d carries a report despite cancelled context", w.Seq)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("output channel did not close under a cancelled context")
	}
	if err := eng.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
}

// slowDim parks the first Build until released, signalling when detection
// has reached it; later builds pass straight through.
type slowDim struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (d *slowDim) Name() string { return "slowdim" }

func (d *slowDim) Fields() trace.Fields { return trace.FieldAgents }

func (d *slowDim) Build(idx *trace.Index) *similarity.ServerGraph {
	d.once.Do(func() { close(d.started) })
	<-d.release
	return similarity.BuildUserAgentGraph(idx, similarity.Options{})
}

// TestStartContextCancelsInFlightDetection cancels the run context while a
// window's mining stage is blocked inside a dimension build: the engine
// must abort that detection (report-less window), close the output
// promptly, and surface ctx.Err().
func TestStartContextCancelsInFlightDetection(t *testing.T) {
	slow := &slowDim{started: make(chan struct{}), release: make(chan struct{})}
	eng, err := New(Config{
		Window:   24 * time.Hour,
		Workers:  1,
		Detector: []core.Option{core.WithSeed(1), core.WithExtraDimension(slow)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan []WindowResult, 1)
	go func() {
		var out []WindowResult
		for r := range eng.StartContext(ctx, &SliceSource{Requests: dayEvents()}) {
			out = append(out, r)
		}
		done <- out
	}()

	select {
	case <-slow.started:
	case <-time.After(30 * time.Second):
		t.Fatal("detection never reached the blocking dimension")
	}
	cancel()
	close(slow.release)

	select {
	case out := <-done:
		if len(out) == 0 {
			t.Fatal("no windows emitted")
		}
		for _, w := range out {
			if w.Report != nil {
				t.Errorf("window %d carries a report despite mid-detection cancel", w.Seq)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("output channel did not close after cancellation")
	}
	if err := eng.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
}

// TestStopStillDrainsGracefully guards the Stop/cancel distinction: Stop
// without context cancellation lets in-flight detections finish and their
// windows keep their reports.
func TestStopStillDrainsGracefully(t *testing.T) {
	slow := &slowDim{started: make(chan struct{}), release: make(chan struct{})}
	eng, err := New(Config{
		Window:   24 * time.Hour,
		Workers:  1,
		Detector: []core.Option{core.WithSeed(1), core.WithExtraDimension(slow)},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []WindowResult, 1)
	go func() {
		var out []WindowResult
		for r := range eng.StartContext(context.Background(), &SliceSource{Requests: dayEvents()}) {
			out = append(out, r)
		}
		done <- out
	}()

	select {
	case <-slow.started:
	case <-time.After(30 * time.Second):
		t.Fatal("detection never reached the blocking dimension")
	}
	eng.Stop()
	close(slow.release)

	select {
	case out := <-done:
		if len(out) == 0 {
			t.Fatal("no windows emitted")
		}
		if out[0].Report == nil {
			t.Error("graceful Stop dropped the in-flight window's report")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("output channel did not close after Stop")
	}
	if err := eng.Err(); err != nil {
		t.Errorf("Err() = %v, want nil after graceful Stop", err)
	}
}

// recordingSink captures window sequence numbers and can inject an error.
type recordingSink struct {
	seqs     []int
	errOn    int           // window seq to fail on; -1 disables
	consumed chan struct{} // if non-nil, signalled per Consume
}

func (s *recordingSink) Consume(w *WindowResult) error {
	s.seqs = append(s.seqs, w.Seq)
	if s.consumed != nil {
		s.consumed <- struct{}{}
	}
	if w.Seq == s.errOn {
		return fmt.Errorf("sink boom on window %d", w.Seq)
	}
	return nil
}

// Sinks see every window, in order, before the channel reader does, and
// sink output matches channel output exactly.
func TestSinkSeesWindowsInOrder(t *testing.T) {
	sink := &recordingSink{errOn: -1}
	eng, err := New(Config{Window: 24 * time.Hour, Workers: 2, Sinks: []Sink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, eng, &SliceSource{Requests: dayEvents()})
	if len(got) == 0 {
		t.Fatal("no windows")
	}
	if len(sink.seqs) != len(got) {
		t.Fatalf("sink saw %d windows, channel %d", len(sink.seqs), len(got))
	}
	for i := range got {
		if sink.seqs[i] != got[i].Seq {
			t.Errorf("sink order %v != channel order", sink.seqs)
			break
		}
	}
}

// A failing sink surfaces through Err but does not stop the stream.
func TestSinkErrorDoesNotStopStream(t *testing.T) {
	sink := &recordingSink{errOn: 0}
	eng, err := New(Config{Window: 24 * time.Hour, Sinks: []Sink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	var got []WindowResult
	for r := range eng.Start(&SliceSource{Requests: dayEvents()}) {
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("windows = %d, want 2 (stream must continue past sink error)", len(got))
	}
	if err := eng.Err(); err == nil || !strings.Contains(err.Error(), "sink boom") {
		t.Errorf("Err() = %v, want sink error", err)
	}
}

// Stats is safe and monotonic while the engine runs.
func TestStatsReadableLive(t *testing.T) {
	sink := &recordingSink{errOn: -1, consumed: make(chan struct{})}
	eng, err := New(Config{Window: 24 * time.Hour, Sinks: []Sink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	out := eng.Start(&SliceSource{Requests: dayEvents()})
	<-sink.consumed // unblock window 0's emit
	first := <-out  // sent after the counter increment: Windows >= 1...
	// ...while window 1's emit is parked in Consume before its increment,
	// so exactly 1.
	mid := eng.Stats()
	if first.Seq != 0 || mid.Windows != 1 {
		t.Errorf("live Windows = %d, want 1", mid.Windows)
	}
	if mid.Events == 0 {
		t.Error("live Events = 0")
	}
	go func() {
		for range sink.consumed {
		}
	}()
	for range out {
	}
	close(sink.consumed)
	final := eng.Stats()
	if final.Windows != 2 || final.Events < mid.Events {
		t.Errorf("final stats regressed: %+v vs %+v", final, mid)
	}
}

// KeepIndex publishes each window's merged index, which agrees with a
// scratch build of the window's events; IndexOnly additionally skips
// detection and the tracker and publishes every window as wire bytes
// only, byte for byte the encoding of the KeepIndex window's index.
func TestKeepIndexAndIndexOnly(t *testing.T) {
	events := []trace.Request{
		evReq(at(0, 10), "c1", "a.com", "/x"),
		evReq(at(0, 20), "c2", "b.com", "/y"),
		evReq(at(1, 10), "c1", "c.com", "/z"),
	}
	want := trace.BuildIndex(&trace.Trace{Requests: events[:2]})

	var kept []WindowResult
	for _, cfg := range []Config{
		{Window: time.Hour, KeepIndex: true},
		{Window: time.Hour, IndexOnly: true},
	} {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wins := collect(t, eng, &SliceSource{Requests: events})
		if len(wins) != 2 {
			t.Fatalf("windows = %d, want 2", len(wins))
		}
		if !cfg.IndexOnly {
			if wins[0].Index == nil {
				t.Fatal("window emitted without index")
			}
			if got := wins[0].Index.Fingerprint(); got != want.Fingerprint() {
				t.Errorf("window index diverged from scratch build:\n%s", got)
			}
			if wins[0].Report == nil {
				t.Error("KeepIndex window lost its report")
			}
			kept = wins
			continue
		}
		for i, w := range wins {
			if w.Index != nil {
				t.Errorf("IndexOnly window %d carries an index", i)
			}
			if enc := wire.EncodeIndex(kept[i].Index); !bytes.Equal(w.Payload, enc) {
				t.Errorf("IndexOnly window %d payload differs from the KeepIndex window's encoding", i)
			}
		}
		if dec, err := wire.DecodeIndex(wins[0].Payload); err != nil || dec.Fingerprint() != want.Fingerprint() {
			t.Errorf("IndexOnly payload diverged from scratch build: %v", err)
		}
		if wins[0].Report != nil || wins[0].Matches != nil {
			t.Error("IndexOnly window carries detection output")
		}
		if len(eng.Tracker().Lineages()) != 0 {
			t.Error("IndexOnly fed the tracker")
		}
	}
}

// Without KeepIndex the index is not retained on results.
func TestIndexNotKeptByDefault(t *testing.T) {
	eng, err := New(Config{Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	wins := collect(t, eng, &SliceSource{Requests: []trace.Request{evReq(at(0, 1), "c1", "a.com", "/x")}})
	if len(wins) != 1 || wins[0].Index != nil {
		t.Errorf("index retained without KeepIndex")
	}
}

// stallSource yields one event, then blocks until release closes — a
// live feed that went quiet.
type stallSource struct {
	ev      trace.Request
	sent    bool
	release chan struct{}
}

func (s *stallSource) ReadBatch(dst []trace.Request) (int, error) {
	if !s.sent {
		s.sent = true
		dst[0] = s.ev
		return 1, nil
	}
	<-s.release
	return 0, io.EOF
}

// lagSample scrapes reg for the watermark-lag sample; ok is false while
// the family renders no sample.
func lagSample(t *testing.T, reg *obs.Registry) (v float64, ok bool) {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if raw, found := strings.CutPrefix(line, "smash_watermark_lag_seconds "); found {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatalf("lag sample %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// The watermark lag is "now − newest event time" at scrape time: when the
// feed stalls, the lag keeps growing instead of freezing at its value
// when the last slab arrived. Before the first event there is no sample.
func TestWatermarkLagGrowsWhileStalled(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := New(Config{Window: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := lagSample(t, reg); ok {
		t.Errorf("lag sample %g before the first event, want none", v)
	}
	src := &stallSource{
		ev:      evReq(time.Now().Add(-time.Minute), "c1", "a.com", "/x"),
		release: make(chan struct{}),
	}
	out := eng.Start(src)
	var first float64
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := lagSample(t, reg); ok && v > 0 {
			first = v
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lag sample after the first event")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	second, _ := lagSample(t, reg)
	close(src.release)
	for range out {
	}
	if first < 59 {
		t.Errorf("first lag = %.3fs, want about 60s", first)
	}
	if second-first < 0.25 {
		t.Errorf("lag %.3fs then %.3fs 300ms later on a stalled feed, want it to grow", first, second)
	}
}
