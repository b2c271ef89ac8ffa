package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"smash/internal/campaign"
	"smash/internal/correlate"
	"smash/internal/herd"
	"smash/internal/preprocess"
	"smash/internal/prune"
	"smash/internal/trace"
)

// Stage names, in execution order (Fig. 2 of the paper).
const (
	StagePreprocess = "preprocess"
	StageMine       = "mine"
	StageCorrelate  = "correlate"
	StagePrune      = "prune"
	StageInfer      = "infer"
)

// StageNames returns the five pipeline stage names in execution order.
func StageNames() []string {
	return []string{StagePreprocess, StageMine, StageCorrelate, StagePrune, StageInfer}
}

// state carries one run's intermediate artifacts across stage boundaries:
// each stage reads the fields earlier stages filled and writes its own.
type state struct {
	raw         *trace.Index
	index       *trace.Index
	mined       *herd.Result
	correlation *correlate.Result
	pruned      []prune.PrunedASH
	report      *Report
}

// StageResult describes one finished stage to observers.
type StageResult struct {
	// Stage is the stage name.
	Stage string `json:"stage"`
	// Index is the stage's position in execution order (0-based).
	Index int `json:"index"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration"`
	// Err is the stage's error, if any.
	Err error `json:"-"`
}

// Observer receives stage lifecycle events from a Pipeline run. Install
// with WithObserver. Implementations must be safe for concurrent use when
// the pipeline is shared across goroutines (e.g. the stream worker pool).
type Observer interface {
	// StageStart fires before the stage runs.
	StageStart(stage string, index int)
	// StageEnd fires after the stage returns, success or failure.
	StageEnd(res StageResult)
}

// Pipeline is the detector: the five-stage Fig. 2 flow run as one fixed
// sequence, with context cancellation between stages and inside dimension
// mining, and observer hooks around every stage. A Pipeline is stateless
// and safe for concurrent runs.
type Pipeline struct {
	cfg config

	// The miner is built with the pipeline: dimensions and miner are
	// immutable, so one instance serves every run (the streaming engine
	// runs one detection per window). A build error surfaces at mining.
	miner   *herd.Miner
	mineErr error
	fields  trace.Fields // the union of the dimensions'
}

// NewPipeline builds a Pipeline from options.
func NewPipeline(opts ...Option) *Pipeline {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	miner, fields, err := buildMiner(cfg)
	return &Pipeline{cfg: cfg, miner: miner, mineErr: err, fields: fields}
}

// Run executes all five stages over a prebuilt raw (pre-filter) index —
// the streaming entry point: internal/stream accumulates each window's
// index incrementally across shards instead of materializing a Trace.
// stats labels the report; the index itself is the unit of detection. The
// caller must not mutate raw afterwards (the report shares it). A Pipeline
// is stateless, so concurrent Runs on one Pipeline are safe. It returns
// ctx.Err() as soon as the current stage finishes once ctx is cancelled;
// inside StageMine cancellation is checked per dimension. extra observers,
// if any, fire for this run only, after the configured ones — the hook
// that lets a caller running many concurrent windows attribute stage
// events to one window (see internal/stream's lifecycle tracing). An
// index lacking an optional field a dimension reads is an error.
func (p *Pipeline) Run(ctx context.Context, raw *trace.Index, stats trace.Stats, extra ...Observer) (*Report, error) {
	if raw == nil {
		return nil, ErrEmptyTrace
	}
	if missing := p.Fields() &^ raw.Fields(); missing != 0 {
		return nil, fmt.Errorf("core: index lacks fields %03b its dimensions read", missing)
	}
	st := &state{raw: raw, report: &Report{
		TraceStats:     stats,
		SecondaryHerds: make(map[string]int),
		RawIndex:       raw,
	}}
	stages := [...]func(context.Context, *state) error{
		p.runPreprocess, p.runMine, p.runCorrelate, p.runPrune, p.runInfer,
	}
	for i, name := range StageNames() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.runStage(ctx, name, i, stages[i], st, extra); err != nil {
			return nil, err
		}
	}
	return st.report, nil
}

// RunTrace indexes a trace (typically one day) and runs all five stages:
// Run(ctx, trace.BuildIndexOf(t, p.Fields()), t.ComputeStats()).
func (p *Pipeline) RunTrace(ctx context.Context, t *trace.Trace, extra ...Observer) (*Report, error) {
	if t == nil || len(t.Requests) == 0 {
		return nil, ErrEmptyTrace
	}
	return p.Run(ctx, trace.BuildIndexOf(t, p.Fields()), t.ComputeStats(), extra...)
}

// Fields returns the optional index fields the pipeline's dimensions read.
func (p *Pipeline) Fields() trace.Fields { return p.fields }

// runStage executes one stage surrounded by observer notifications: the
// pipeline's configured observers first, then the run's extra ones.
func (p *Pipeline) runStage(ctx context.Context, name string, index int, run func(context.Context, *state) error, st *state, extra []Observer) error {
	for _, o := range p.cfg.observers {
		o.StageStart(name, index)
	}
	for _, o := range extra {
		o.StageStart(name, index)
	}
	start := time.Now()
	err := run(ctx, st)
	res := StageResult{Stage: name, Index: index, Duration: time.Since(start), Err: err}
	for _, o := range p.cfg.observers {
		o.StageEnd(res)
	}
	for _, o := range extra {
		o.StageEnd(res)
	}
	return err
}

// runPreprocess is stage 1: apply the IDF popularity filter to a shallow
// clone of the raw index (SLD aggregation happened during indexing). The
// clone shares the per-server aggregates with the raw index, which is the
// run's to read, never to mutate — and so, then, is the filtered one.
func (p *Pipeline) runPreprocess(_ context.Context, st *state) error {
	st.index = st.raw.ShallowClone()
	st.report.Preprocess = preprocess.FilterIDF(st.index, p.cfg.idfThreshold)
	st.report.Index = st.index
	return nil
}

// buildMiner assembles the dimension set and miner from the configuration,
// and the union of the optional index fields the dimensions read.
func buildMiner(cfg config) (*herd.Miner, trace.Fields, error) {
	dims := []herd.Dimension{
		herd.ClientDimension(cfg.simOpts),
		herd.FileDimension(cfg.simOpts),
		herd.IPDimension(cfg.simOpts),
	}
	if cfg.registry != nil && !cfg.disableWhoisDim {
		dims = append(dims, herd.WhoisDimension(cfg.registry, cfg.simOpts))
	}
	dims = append(dims, cfg.extraDims...)
	var fields trace.Fields
	for _, d := range dims {
		fields |= d.Fields()
	}
	miner, err := herd.NewMiner(dims[0], dims[1:], cfg.seed)
	if err != nil {
		return nil, fields, fmt.Errorf("core: build miner: %w", err)
	}
	if cfg.mineFunc != nil {
		miner.SetMineFunc(cfg.mineFunc)
	}
	return miner, fields, nil
}

// runMine is stage 2: ASH mining over all dimensions, fanned out on a
// bounded worker pool (WithMiningWorkers) with per-dimension cancellation.
func (p *Pipeline) runMine(ctx context.Context, st *state) error {
	if p.mineErr != nil {
		return p.mineErr
	}
	mined, err := p.miner.MineContext(ctx, st.index, p.cfg.mineWorkers)
	if err != nil {
		return err
	}
	st.mined = mined
	r := st.report
	r.Mined = mined
	r.MainHerds = len(mined.Main)
	for dim, herds := range mined.Secondary {
		r.SecondaryHerds[dim] = len(herds)
	}
	return nil
}

// runCorrelate is stage 3: multi-dimension scoring. It scores once at the
// laxer of the two thresholds; the stricter single-client threshold is
// applied after campaign formation when the involved-client count is known
// (§V, footnote 9).
func (p *Pipeline) runCorrelate(_ context.Context, st *state) error {
	cfg := p.cfg
	low := cfg.threshold
	if cfg.singleThreshold < low {
		low = cfg.singleThreshold
	}
	st.correlation = correlate.Correlate(st.mined, correlate.Options{
		Mu: cfg.mu, Beta: cfg.beta, Threshold: low,
	})
	st.report.Scores = st.correlation.Scores
	return nil
}

// runPrune is stage 4: redirection/referrer noise pruning.
func (p *Pipeline) runPrune(_ context.Context, st *state) error {
	st.pruned, st.report.PruneStats = prune.Prune(st.correlation.Herds, st.index, prune.Options{
		Prober: p.cfg.prober,
		Whois:  p.cfg.registry,
	})
	return nil
}

// runInfer is stage 5: campaign inference, classification and
// per-population thresholds.
func (p *Pipeline) runInfer(_ context.Context, st *state) error {
	cfg := p.cfg
	campaigns := campaign.Infer(st.pruned, st.index)
	campaign.Classify(campaigns, st.index, 0.5)
	multi, single := campaign.FilterMinClients(campaigns, cfg.minClients)
	r := st.report
	r.Campaigns = filterByScore(multi, st.correlation.Scores, cfg.threshold)
	r.SingleClientCampaigns = filterByScore(single, st.correlation.Scores, cfg.singleThreshold)
	return nil
}

// LogObserver is a ready-made Observer that writes one line per finished
// stage — the timing/diagnostic hook smashd -v installs.
type LogObserver struct {
	// W receives the log lines.
	W io.Writer
	// Prefix is prepended to every line (e.g. "smashd: ").
	Prefix string
}

// StageStart implements Observer (no output; the end line carries timing).
func (l *LogObserver) StageStart(string, int) {}

// StageEnd implements Observer.
func (l *LogObserver) StageEnd(res StageResult) {
	if res.Err != nil {
		fmt.Fprintf(l.W, "%sstage %-10s %10s  error: %v\n",
			l.Prefix, res.Stage, res.Duration.Round(time.Microsecond), res.Err)
		return
	}
	fmt.Fprintf(l.W, "%sstage %-10s %10s\n",
		l.Prefix, res.Stage, res.Duration.Round(time.Microsecond))
}
