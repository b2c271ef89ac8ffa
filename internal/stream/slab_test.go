package stream

import (
	"io"
	"sync"
	"testing"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/trace"
)

// batchSource hands out its batches one per ReadBatch call, closing
// returned (when set) as the last one goes out. Then it reports io.EOF —
// once release closes, when release is set.
type batchSource struct {
	batches  [][]trace.Request
	returned chan struct{}
	release  chan struct{}
}

func (s *batchSource) ReadBatch(dst []trace.Request) (int, error) {
	if len(s.batches) == 0 {
		if s.release != nil {
			<-s.release
		}
		return 0, io.EOF
	}
	n := copy(dst, s.batches[0])
	s.batches = s.batches[1:]
	if len(s.batches) == 0 && s.returned != nil {
		close(s.returned)
	}
	return n, nil
}

// chunked cuts events into batches of at most k.
func chunked(events []trace.Request, k int) [][]trace.Request {
	var out [][]trace.Request
	for len(events) > k {
		out = append(out, events[:k])
		events = events[k:]
	}
	return append(out, events)
}

// stageGate is a core.Observer that parks the first detection stage it
// sees until release closes; every later stage passes straight through.
type stageGate struct {
	started, release chan struct{}
	once             sync.Once
}

func newStageGate() *stageGate {
	return &stageGate{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *stageGate) StageStart(string, int) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
}

func (g *stageGate) StageEnd(core.StageResult) {}

func (g *stageGate) await(t *testing.T) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(30 * time.Second):
		t.Fatal("detection never started")
	}
}

// dayEvent is one event at 01:00 on day d, which with 24 h windows and no
// watermark seals day d-1's window.
func dayEvent(d int, client string) trace.Request {
	return evReq(time.Date(2011, 10, 1+d, 1, 0, 0, 0, time.UTC), client, "a.com", "/x")
}

// sealed counts the windows whose merged index the sealer has finished.
func sealed(tr *obs.Tracer) int {
	n := 0
	for _, seq := range tr.Recent() {
		for _, s := range tr.Trace(seq).Spans {
			if s.Phase == "seal" {
				n++
			}
		}
	}
	return n
}

// A window holds its admission slot until its detection has finished: with
// window 0's detection parked, no more than Workers windows are sealed
// however many days are queued behind it.
func TestAdmissionBound(t *testing.T) {
	var events []trace.Request
	for d := 0; d < 6; d++ {
		events = append(events, dayEvent(d, "c1"), dayEvent(d, "c2"))
	}
	gate := newStageGate()
	tr := obs.NewTracer(0)
	eng, err := New(Config{
		Window: 24 * time.Hour, Workers: 1, Tracer: tr,
		Detector: []core.Option{core.WithSeed(1), core.WithObserver(gate)},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &blockingSource{reqs: events, ingested: make(chan struct{}), release: make(chan struct{})}
	out := eng.Start(src)
	gate.await(t)
	<-src.ingested
	// Every event is in the engine; give the windower time to seal past
	// the bound if it would.
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if n := sealed(tr); n > 1 {
			t.Errorf("%d windows sealed while window 0 is in detection, want <= Workers = 1", n)
			break
		}
	}
	close(gate.release)
	close(src.release)
	n := 0
	for range out {
		n++
	}
	if n != 6 {
		t.Errorf("windows = %d, want 6", n)
	}
}

// Stop while the reader holds a slab it cannot yet hand over (the windower
// is stalled on admission) must still window every event of that slab.
func TestStopWindowsSlabInHand(t *testing.T) {
	batches := [][]trace.Request{
		{dayEvent(0, "c1"), dayEvent(0, "c2"), dayEvent(1, "c1")}, // seals window 0, whose detection parks
		{dayEvent(2, "c1")}, // window 1's seal waits for admission
		{dayEvent(3, "c1")}, // fills the one-slab channel
		{dayEvent(4, "c1"), dayEvent(4, "c2"), dayEvent(4, "c3")}, // in hand
	}
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	gate := newStageGate()
	eng, err := New(Config{
		Window: 24 * time.Hour, Workers: 1, Buffer: 1,
		Detector: []core.Option{core.WithSeed(1), core.WithObserver(gate)},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &batchSource{batches: batches, returned: make(chan struct{}), release: make(chan struct{})}
	defer close(src.release)
	out := eng.Start(src)
	gate.await(t)
	<-src.returned
	eng.Stop()
	close(gate.release)
	requests := 0
	for w := range out {
		requests += w.Requests
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Events != total || requests != total {
		t.Errorf("windowed %d events in %d requests, want all %d", st.Events, requests, total)
	}
}
