package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smash/internal/similarity"
	"smash/internal/trace"
)

// stageRecorder captures observer callbacks.
type stageRecorder struct {
	mu     sync.Mutex
	starts []string
	ends   []StageResult
}

func (r *stageRecorder) StageStart(stage string, _ int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, stage)
}

func (r *stageRecorder) StageEnd(res StageResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, res)
}

// TestObserverSeesEveryStage checks hook ordering and durations.
func TestObserverSeesEveryStage(t *testing.T) {
	w := testWorld(t)
	rec := &stageRecorder{}
	det := NewPipeline(WithSeed(7), WithWhois(w.Whois), WithProber(w.Prober), WithObserver(rec))
	if _, err := det.RunTrace(context.Background(), w.Trace()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.starts, StageNames()) {
		t.Errorf("observed starts = %v, want %v", rec.starts, StageNames())
	}
	if len(rec.ends) != len(StageNames()) {
		t.Fatalf("observed %d ends, want %d", len(rec.ends), len(StageNames()))
	}
	for i, res := range rec.ends {
		if res.Stage != StageNames()[i] || res.Index != i {
			t.Errorf("end %d = %s/%d", i, res.Stage, res.Index)
		}
		if res.Err != nil {
			t.Errorf("stage %s erred: %v", res.Stage, res.Err)
		}
		if res.Duration < 0 {
			t.Errorf("stage %s has negative duration", res.Stage)
		}
	}
}

// TestTimingAndLogObservers exercises the ready-made LogObserver: one
// timed line per stage.
func TestTimingAndLogObservers(t *testing.T) {
	w := testWorld(t)
	var logBuf bytes.Buffer
	det := NewPipeline(WithSeed(7), WithWhois(w.Whois), WithProber(w.Prober),
		WithObserver(&LogObserver{W: &logBuf, Prefix: "test: "}))
	if _, err := det.RunTrace(context.Background(), w.Trace()); err != nil {
		t.Fatal(err)
	}
	for _, s := range StageNames() {
		if !strings.Contains(logBuf.String(), s) {
			t.Errorf("log observer missing stage %s:\n%s", s, logBuf.String())
		}
	}
}

// TestRunContextCancelledUpFront returns ctx.Err() without running stages.
func TestRunContextCancelledUpFront(t *testing.T) {
	w := testWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &stageRecorder{}
	det := NewPipeline(WithSeed(7), WithObserver(rec))
	if _, err := det.RunTrace(ctx, w.Trace()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rec.starts) != 0 {
		t.Errorf("stages ran under a cancelled context: %v", rec.starts)
	}
}

// cancelAfterStage cancels the run context as soon as the named stage ends.
type cancelAfterStage struct {
	stage  string
	cancel context.CancelFunc
}

func (c *cancelAfterStage) StageStart(string, int) {}
func (c *cancelAfterStage) StageEnd(res StageResult) {
	if res.Stage == c.stage {
		c.cancel()
	}
}

// TestRunContextCancelBetweenStages cancels right after preprocessing and
// expects the run to stop before mining.
func TestRunContextCancelBetweenStages(t *testing.T) {
	w := testWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &stageRecorder{}
	det := NewPipeline(WithSeed(7),
		WithObserver(&cancelAfterStage{stage: StagePreprocess, cancel: cancel}),
		WithObserver(rec))
	if _, err := det.RunTrace(ctx, w.Trace()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(rec.starts, []string{StagePreprocess}) {
		t.Errorf("stages started = %v, want only preprocess", rec.starts)
	}
}

// blockingDimension parks its Build until released, signalling when it
// starts — the hook for cancelling mid-mining.
type blockingDimension struct {
	name    string
	started chan struct{}
	release chan struct{}
}

func (d *blockingDimension) Name() string { return d.name }

func (d *blockingDimension) Fields() trace.Fields { return trace.FieldAgents }

func (d *blockingDimension) Build(idx *trace.Index) *similarity.ServerGraph {
	close(d.started)
	<-d.release
	return similarity.BuildUserAgentGraph(idx, similarity.Options{})
}

// TestRunContextCancelMidMining cancels while a dimension build is in
// flight: the run must return ctx.Err() promptly — waiting out at most the
// in-flight dimension — without starting the remaining dimensions.
func TestRunContextCancelMidMining(t *testing.T) {
	w := testWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	slow := &blockingDimension{name: "slowdim", started: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	det := NewPipeline(WithSeed(7), WithMiningWorkers(1), WithExtraDimension(slow))
	go func() {
		_, err := det.RunTrace(ctx, w.Trace())
		done <- err
	}()

	select {
	case <-slow.started:
	case <-time.After(30 * time.Second):
		t.Fatal("mining never reached the blocking dimension")
	}
	cancel()
	close(slow.release)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
}

// TestParallelMiningEquivalence is the determinism guard for the mining
// fan-out: a parallel run must produce a byte-identical report to the
// legacy sequential path on the same day trace.
func TestParallelMiningEquivalence(t *testing.T) {
	w := testWorld(t)
	tr := w.Trace()
	raw, stats := trace.BuildIndex(tr), tr.ComputeStats()
	base := []Option{WithSeed(7), WithWhois(w.Whois), WithProber(w.Prober)}

	seq, err := NewPipeline(append(base, WithMiningWorkers(1))...).Run(context.Background(), raw, stats)
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	par, err := NewPipeline(append(base, WithMiningWorkers(workers))...).Run(context.Background(), raw, stats)
	if err != nil {
		t.Fatal(err)
	}

	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("parallel mining (workers=%d) diverges from sequential run", workers)
	}
	if !reflect.DeepEqual(seq.Summarize(), par.Summarize()) {
		t.Error("parallel mining summary diverges from sequential run")
	}
	if !reflect.DeepEqual(seq.Mined.Secondary, par.Mined.Secondary) {
		t.Error("parallel mining herds diverge from sequential run")
	}
}
