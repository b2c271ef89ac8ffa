package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/trace"
	"smash/internal/tracker"
)

// NamedSink is an optional Sink refinement: a sink that names itself gets
// its own consume-latency histogram series and lifecycle span ("store"
// for the durable store, "forward" for the cluster forwarder) instead of
// the generic "sink" label.
type NamedSink interface {
	Sink
	// SinkName returns a short stable label for spans and metric labels.
	SinkName() string
}

// sinkName labels a sink for spans and metrics.
func sinkName(s Sink) string {
	if n, ok := s.(NamedSink); ok {
		return n.SinkName()
	}
	return "sink"
}

// Committer is the back half every detecting node runs on a sealed window
// index: the detection pipeline, tracker observation, retire + campaign
// deltas, and the sinks, with their spans ("detect", "detect:<stage>",
// one per sink) and latency families. The stream Engine and
// internal/cluster's Aggregator both commit through one, so a cluster
// window and a standalone window are derived — and instrumented — by the
// same code. What differs stays with the caller: how the index was
// assembled, when a window is skipped or aborted, and where the result is
// published.
type Committer struct {
	name  string
	pipe  *core.Pipeline
	tk    *tracker.Tracker
	sinks []Sink
	tr    *obs.Tracer
	log   *slog.Logger

	// Latency instruments; all nil (and so no-ops) without a registry.
	detect      *obs.Histogram
	stage, sink map[string]*obs.Histogram
}

// NewCommitter builds the commit path for one node. name labels window
// reports ("<name>-w<seq>"); detector configures the pipeline; reg, tr
// and log may each be nil (no metrics, no spans, logs discarded).
func NewCommitter(name string, detector []core.Option, tk *tracker.Tracker, sinks []Sink,
	reg *obs.Registry, tr *obs.Tracer, log *slog.Logger) *Committer {
	c := &Committer{name: name, pipe: core.NewPipeline(detector...), tk: tk, sinks: sinks, tr: tr, log: log}
	if c.log == nil {
		c.log = obs.Discard()
	}
	if reg == nil {
		return c
	}
	c.detect = reg.Histogram("smash_window_detect_seconds",
		"Wall-clock running the detection pipeline, per window.")
	c.stage = make(map[string]*obs.Histogram)
	for _, s := range core.StageNames() {
		c.stage[s] = reg.Histogram("smash_pipeline_stage_seconds",
			"Wall-clock per detection pipeline stage run.", "stage", s)
	}
	c.sink = make(map[string]*obs.Histogram)
	for _, s := range sinks {
		name := sinkName(s)
		c.sink[name] = reg.Histogram("smash_sink_consume_seconds",
			"Wall-clock per sink consume on the window commit path.", "sink", name)
	}
	return c
}

// Detect runs the pipeline over window seq's sealed, non-empty index.
// Safe for concurrent use (a Pipeline is stateless). A context error
// comes back bare; any other is wrapped with the window and logged. The
// report is nil on error.
func (c *Committer) Detect(ctx context.Context, seq int, idx *trace.Index) (*core.Report, error) {
	var extra []core.Observer
	if c.tr != nil || c.stage != nil {
		extra = []core.Observer{&stageObserver{c: c, seq: int64(seq)}}
	}
	t0 := time.Now()
	report, err := c.pipe.Run(ctx, idx, idx.ComputeStats(fmt.Sprintf("%s-w%d", c.name, seq)), extra...)
	d := time.Since(t0)
	c.tr.Record(int64(seq), "detect", t0, d, errAttrs(err)...)
	c.detect.Observe(d.Seconds())
	switch {
	case err == nil:
		return report, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, err
	default:
		c.log.Error("window detection failed", "window", seq, "err", err)
		return nil, fmt.Errorf("stream: window %d: %w", seq, err)
	}
}

// Track feeds the window's report through the tracker and fills in
// res.Matches and res.Deltas. A report-less window (empty or aborted)
// observes an empty report so lineage day arithmetic (FirstDay, LastDay,
// window gaps) stays aligned with the window sequence. Must be called in
// window order.
func (c *Committer) Track(res *WindowResult) {
	report := res.Report
	if report == nil {
		report = &core.Report{}
	}
	res.Matches = c.tk.Observe(report)
	// Retirements happened inside Observe before matching, so retire
	// deltas lead the window's transition list.
	res.Deltas = append(RetireDeltas(res.Seq, c.tk.RetiredNow()),
		DeltasFor(res.Seq, report.AllCampaigns(), res.Matches)...)
}

// Sink hands the window to every sink in order and returns the first
// error; a failing sink is logged and does not stop the others.
func (c *Committer) Sink(res *WindowResult) error {
	var first error
	for _, s := range c.sinks {
		name := sinkName(s)
		t0 := time.Now()
		err := s.Consume(res)
		d := time.Since(t0)
		c.tr.Record(int64(res.Seq), name, t0, d)
		c.sink[name].Observe(d.Seconds())
		if err != nil {
			c.log.Error("sink failed", "window", res.Seq, "sink", name, "err", err)
			if first == nil {
				first = fmt.Errorf("stream: sink: %w", err)
			}
		}
	}
	return first
}

// stageObserver is the core.Observer bound to one window's run: every
// finished pipeline stage becomes a "detect:<stage>" span and an
// observation in the per-stage histogram family.
type stageObserver struct {
	c   *Committer
	seq int64
}

func (o *stageObserver) StageStart(string, int) {}

func (o *stageObserver) StageEnd(res core.StageResult) {
	o.c.tr.Record(o.seq, "detect:"+res.Stage,
		time.Now().Add(-res.Duration), res.Duration, errAttrs(res.Err)...)
	o.c.stage[res.Stage].Observe(res.Duration.Seconds())
}

// errAttrs is the span attribute list for an optional error.
func errAttrs(err error) []string {
	if err == nil {
		return nil
	}
	return []string{"error", err.Error()}
}
