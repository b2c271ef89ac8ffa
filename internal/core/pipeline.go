package core

import (
	"context"
	"fmt"
	"io"
	"sync"
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

// State carries one run's intermediate artifacts across stage boundaries.
// Each stage reads the fields earlier stages filled and writes its own, so
// a caller holding a State can rerun only the downstream stages (see
// Pipeline.RunFrom) after tweaking what a stage consumes.
type State struct {
	// Raw is the pre-filter index the run started from (stage input).
	Raw *trace.Index
	// Stats labels the report (stage input).
	Stats trace.Stats
	// Index is the post-preprocessing index (set by StagePreprocess).
	Index *trace.Index
	// Preprocess is the IDF filter outcome (set by StagePreprocess).
	Preprocess preprocess.Result
	// Mined holds the per-dimension herds (set by StageMine).
	Mined *herd.Result
	// Correlation is the multi-dimension scoring outcome (set by
	// StageCorrelate).
	Correlation *correlate.Result
	// Pruned holds the herds surviving noise pruning (set by StagePrune;
	// non-nil once the stage has run, even when empty).
	Pruned []prune.PrunedASH
	// PruneStats reports the pruning stage (set by StagePrune).
	PruneStats prune.Stats
	// Report accumulates the run's public output; complete after
	// StageInfer.
	Report *Report
}

// report returns the state's report, creating it on first use so partial
// reruns starting past StagePreprocess still assemble one.
func (st *State) report() *Report {
	if st.Report == nil {
		st.Report = &Report{
			TraceStats:     st.Stats,
			SecondaryHerds: make(map[string]int),
			RawIndex:       st.Raw,
			Index:          st.Index,
		}
	}
	return st.Report
}

// inputsReady reports whether the state holds the upstream artifacts the
// named stage consumes, so a partial rerun starting there fails with a
// diagnosable error instead of a nil dereference mid-stage.
func (st *State) inputsReady(stage string) error {
	missing := func(field, producer string) error {
		return fmt.Errorf("core: stage %s needs State.%s (run %s first)", stage, field, producer)
	}
	switch stage {
	case StagePreprocess:
		if st.Raw == nil {
			return ErrEmptyTrace
		}
	case StageMine:
		if st.Index == nil {
			return missing("Index", StagePreprocess)
		}
	case StageCorrelate:
		if st.Mined == nil {
			return missing("Mined", StageMine)
		}
	case StagePrune, StageInfer:
		if st.Index == nil {
			return missing("Index", StagePreprocess)
		}
		if st.Correlation == nil {
			return missing("Correlation", StageCorrelate)
		}
		if stage == StageInfer && st.Pruned == nil {
			return missing("Pruned", StagePrune)
		}
	}
	return nil
}

// artifact returns the intermediate product a finished stage exposes to
// observers through StageResult.Artifact.
func (st *State) artifact(stage string) any {
	switch stage {
	case StagePreprocess:
		return st.Preprocess
	case StageMine:
		return st.Mined
	case StageCorrelate:
		return st.Correlation
	case StagePrune:
		return st.Pruned
	case StageInfer:
		return st.Report
	default:
		return nil
	}
}

// Stage is one pipeline step as a first-class value: a name plus the
// function that advances a State. Stages obtained from Pipeline.Stages can
// be run individually, giving callers per-stage control (custom
// scheduling, caching, partial reruns) that Run's fixed sequence does not.
type Stage struct {
	// Name is one of the Stage* constants.
	Name string
	// Run advances st; it reads the fields earlier stages filled.
	Run func(ctx context.Context, st *State) error
}

// StageResult describes one finished stage to observers.
type StageResult struct {
	// Stage is the stage name.
	Stage string `json:"stage"`
	// Index is the stage's position in execution order (0-based).
	Index int `json:"index"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration"`
	// Artifact is the stage's intermediate product (see State.artifact);
	// nil when the stage failed.
	Artifact any `json:"-"`
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

// Pipeline is the detector: the five-stage Fig. 2 flow with each stage
// exposed as a first-class value, context cancellation between stages and
// inside dimension mining, and observer hooks around every stage. A
// Pipeline is stateless and safe for concurrent runs.
type Pipeline struct {
	cfg config

	// The miner is part of the pipeline's scratch: dimensions
	// and miner are immutable once built, so one instance serves every run
	// (the streaming engine runs one detection per window) instead of
	// being reconstructed per window.
	mineOnce sync.Once
	miner    *herd.Miner
	mineErr  error
}

// NewPipeline builds a Pipeline from options.
func NewPipeline(opts ...Option) *Pipeline {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &Pipeline{cfg: cfg}
}

// Stages returns the five stages in execution order, bound to this
// pipeline's configuration.
func (p *Pipeline) Stages() []Stage {
	return []Stage{
		{Name: StagePreprocess, Run: p.runPreprocess},
		{Name: StageMine, Run: p.runMine},
		{Name: StageCorrelate, Run: p.runCorrelate},
		{Name: StagePrune, Run: p.runPrune},
		{Name: StageInfer, Run: p.runInfer},
	}
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
// events to one window (see internal/stream's lifecycle tracing).
func (p *Pipeline) Run(ctx context.Context, raw *trace.Index, stats trace.Stats, extra ...Observer) (*Report, error) {
	if raw == nil {
		return nil, ErrEmptyTrace
	}
	return p.RunFrom(ctx, &State{Raw: raw, Stats: stats}, StagePreprocess, extra...)
}

// RunTrace indexes a trace (typically one day) and runs all five stages:
// Run(ctx, trace.BuildIndex(t), t.ComputeStats()).
func (p *Pipeline) RunTrace(ctx context.Context, t *trace.Trace, extra ...Observer) (*Report, error) {
	if t == nil || len(t.Requests) == 0 {
		return nil, ErrEmptyTrace
	}
	return p.Run(ctx, trace.BuildIndex(t), t.ComputeStats(), extra...)
}

// RunFrom executes the stages starting at the named stage, using whatever
// upstream artifacts st already holds — the partial-rerun entry point: keep
// the State from a full run, adjust, and rerun only downstream stages. A
// State missing the starting stage's upstream artifacts is rejected.
// extra observers fire for this run only, after the configured ones.
func (p *Pipeline) RunFrom(ctx context.Context, st *State, from string, extra ...Observer) (*Report, error) {
	stages := p.Stages()
	first := -1
	for i, s := range stages {
		if s.Name == from {
			first = i
			break
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("core: unknown stage %q", from)
	}
	if err := st.inputsReady(from); err != nil {
		return nil, err
	}
	for i := first; i < len(stages); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.runStage(ctx, stages[i], i, st, extra); err != nil {
			return nil, err
		}
	}
	return st.Report, nil
}

// runStage executes one stage surrounded by observer notifications: the
// pipeline's configured observers first, then the run's extra ones.
func (p *Pipeline) runStage(ctx context.Context, s Stage, index int, st *State, extra []Observer) error {
	for _, o := range p.cfg.observers {
		o.StageStart(s.Name, index)
	}
	for _, o := range extra {
		o.StageStart(s.Name, index)
	}
	start := time.Now()
	err := s.Run(ctx, st)
	res := StageResult{Stage: s.Name, Index: index, Duration: time.Since(start), Err: err}
	if err == nil {
		res.Artifact = st.artifact(s.Name)
	}
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
func (p *Pipeline) runPreprocess(_ context.Context, st *State) error {
	if st.Raw == nil {
		return ErrEmptyTrace
	}
	r := st.report()
	r.RawIndex = st.Raw
	idx := st.Raw.ShallowClone()
	st.Preprocess = preprocess.FilterIDF(idx, p.cfg.idfThreshold)
	st.Index = idx
	r.Preprocess = st.Preprocess
	r.Index = idx
	return nil
}

// buildMiner assembles the dimension set and miner from the configuration.
func (p *Pipeline) buildMiner() (*herd.Miner, error) {
	cfg := p.cfg
	secondary := []herd.Dimension{
		herd.FileDimension(cfg.simOpts),
		herd.IPDimension(cfg.simOpts),
	}
	if cfg.registry != nil && !cfg.disableWhoisDim {
		secondary = append(secondary, herd.WhoisDimension(cfg.registry, cfg.simOpts))
	}
	secondary = append(secondary, cfg.extraDims...)
	miner, err := herd.NewMiner(herd.ClientDimension(cfg.simOpts), secondary, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("core: build miner: %w", err)
	}
	if cfg.mineFunc != nil {
		miner.SetMineFunc(cfg.mineFunc)
	}
	return miner, nil
}

// runMine is stage 2: ASH mining over all dimensions, fanned out on a
// bounded worker pool (WithMiningWorkers) with per-dimension cancellation.
func (p *Pipeline) runMine(ctx context.Context, st *State) error {
	p.mineOnce.Do(func() { p.miner, p.mineErr = p.buildMiner() })
	if p.mineErr != nil {
		return p.mineErr
	}
	mined, err := p.miner.MineContext(ctx, st.Index, p.cfg.mineWorkers)
	if err != nil {
		return err
	}
	st.Mined = mined
	r := st.report()
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
func (p *Pipeline) runCorrelate(_ context.Context, st *State) error {
	cfg := p.cfg
	low := cfg.threshold
	if cfg.singleThreshold < low {
		low = cfg.singleThreshold
	}
	st.Correlation = correlate.Correlate(st.Mined, correlate.Options{
		Mu: cfg.mu, Beta: cfg.beta, Threshold: low,
	})
	st.report().Scores = st.Correlation.Scores
	return nil
}

// runPrune is stage 4: redirection/referrer noise pruning.
func (p *Pipeline) runPrune(_ context.Context, st *State) error {
	pruned, pruneStats := prune.Prune(st.Correlation.Herds, st.Index, prune.Options{
		Prober: p.cfg.prober,
		Whois:  p.cfg.registry,
	})
	if pruned == nil {
		// Non-nil even when everything was pruned: nil Pruned marks a
		// state where the prune stage never ran (see inputsReady).
		pruned = []prune.PrunedASH{}
	}
	st.Pruned = pruned
	st.PruneStats = pruneStats
	st.report().PruneStats = pruneStats
	return nil
}

// runInfer is stage 5: campaign inference, classification and
// per-population thresholds.
func (p *Pipeline) runInfer(_ context.Context, st *State) error {
	cfg := p.cfg
	campaigns := campaign.Infer(st.Pruned, st.Index)
	campaign.Classify(campaigns, st.Index, 0.5)
	multi, single := campaign.FilterMinClients(campaigns, cfg.minClients)
	r := st.report()
	r.Campaigns = filterByScore(multi, st.Correlation.Scores, cfg.threshold)
	r.SingleClientCampaigns = filterByScore(single, st.Correlation.Scores, cfg.singleThreshold)
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
