package cluster

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/stream"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// AggregatorConfig parameterizes an Aggregator.
type AggregatorConfig struct {
	// Name labels window reports (default "smashd", matching a standalone
	// engine so cluster and single-node reports are comparable).
	Name string
	// Window is the detection window size (required, > 0).
	Window time.Duration
	// Stride is the window start spacing; 0 defaults to Window. It must
	// equal the ingest nodes' stride or window ids will not align.
	Stride time.Duration
	// Expect is the number of child nodes — ingest nodes or merge tiers —
	// feeding this aggregator (required, > 0). A window seals once every
	// expected node has forwarded it (or passed it).
	Expect int
	// Straggler bounds how far (in windows) the lead node may run ahead
	// of a lagging one before windows seal without the straggler; late
	// fragments are then counted and dropped. 0 waits for every node
	// indefinitely — exact, but a dead node stalls the cluster.
	Straggler int
	// IndexOnly makes this a merge tier — the twin of
	// stream.Config.IndexOnly: no decoding, detection or tracking, every
	// window (empty and aborted ones too — the parent needs this tier's
	// watermark) goes straight to Sinks as merged bytes on
	// WindowResult.Payload with the children's hop trail on
	// WindowResult.Hops, and a Forwarder sink ships it upstream. The
	// parent dedupes per (node, window), so the fragment-log frontier
	// commits after the sinks ran and a crash in between re-forwards one
	// window; AppliedWindows is forced to -1.
	IndexOnly bool
	// Detector configures the core.Pipeline run on every merged window.
	Detector []core.Option
	// Tracker overrides the lineage tracker (default tracker.New()).
	Tracker *tracker.Tracker
	// Sinks receive every emitted WindowResult in window order, exactly
	// like stream.Config.Sinks (internal/store plugs in unchanged).
	Sinks []stream.Sink
	// Buffer is the fragment inbox capacity; a full inbox blocks Submit,
	// backpressuring ingest nodes through their forwarders (default 64).
	Buffer int
	// FragDir, when set, makes the aggregator crash-recoverable: every
	// fragment is logged there (FragLog) before Submit acknowledges it,
	// and a restarted aggregator replays un-sealed windows through the
	// same dedupe/late filters, resuming byte-identical to a run that
	// never crashed. Empty disables recovery.
	FragDir string
	// FragSync fsyncs every fragment-log append (pair it with the
	// store's Sync).
	FragSync bool
	// AppliedWindows reconciles the fragment log's frontier after a
	// crash: the number of windows the durable sink had already applied
	// when this process started (for internal/store,
	// LastWindow().Window+1). The frontier may run at most one window
	// ahead — that window is redone. -1 trusts the frontier outright
	// (only safe when the sinks dedupe or are disposable). Ignored
	// without FragDir.
	AppliedWindows int
	// Metrics registers the aggregator's latency histograms (fragment
	// wait, detection, per-stage, per-sink, seal->commit) on this
	// registry. Nil disables metrics.
	Metrics *obs.Registry
	// Tracer records each merged cluster window's lifecycle spans
	// (fragments, merge, detect and its stages, sink consumes). Nil
	// disables tracing.
	Tracer *obs.Tracer
	// Logger receives structured aggregator logs. Nil discards them.
	Logger *slog.Logger
}

// Aggregator receives window fragments from its child nodes, aligns them
// on epoch-derived window ids with per-(node, window) dedupe and
// straggler-policy late drops, merges each window's fragment payloads in
// sorted node order (wire.MergeIndexes) and commits the merged window
// through the same stream.Committer a standalone stream engine drives —
// decoded for detection, tracker and sinks at the tree's root, as bytes
// to the sinks alone on an IndexOnly merge tier. Create with
// NewAggregator, feed with Submit (typically via internal/serve's
// /v1/ingest), consume the Start channel — always: it has capacity 1, so
// an undrained aggregator blocks at its second seal. With FragDir set it
// survives kill -9: Submit makes every fragment durable before acking, and
// a restart replays the log through the same accept path (see
// AggregatorConfig.FragDir and the package comment's merge tiers section).
type Aggregator struct {
	cfg    AggregatorConfig
	commit *stream.Committer
	out    chan stream.WindowResult
	log    *slog.Logger
	// flog enables crash recovery; nil runs in-memory only.
	flog *FragLog
	// mWait and mSealCommit instrument the seal path; mHop observes
	// per-hop send→accept transit (clamped at zero when skew runs it
	// negative); mE2E observes window-end→seal latency for live
	// (non-replayed) windows. All nil no-op.
	mWait, mSealCommit, mHop, mE2E *obs.Histogram

	in   chan *wire.Fragment
	done chan struct{}
	quit chan struct{}
	abnd chan struct{}

	stopOnce sync.Once
	abndOnce sync.Once
	started  bool

	errMu sync.Mutex
	err   error

	nodeMu sync.Mutex
	nodes  map[string]*nodeState

	ctrFragments, ctrDup, ctrLate     atomic.Int64
	ctrWindows, ctrEmpty, ctrRequests atomic.Int64

	// Loop state, owned by the run goroutine (resume touches it before
	// the loop starts, from the same goroutine).
	pending          map[int64]map[string]*pendingFrag
	firstFrag        map[int64]time.Time
	minSeen, maxSeen int64
	nextSeal         int64
	sealedAny        bool
	emitted          int
	// replaying is true while resume feeds logged fragments through
	// accept, marking them so their spans carry a replay flag and the
	// e2e histogram skips their windows.
	replaying bool
}

// NewAggregator validates the config and builds an aggregator.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if cfg.Window <= 0 {
		return nil, errors.New("cluster: Window must be > 0")
	}
	if cfg.Stride == 0 {
		cfg.Stride = cfg.Window
	}
	if cfg.Stride < 0 || cfg.Stride > cfg.Window {
		return nil, errors.New("cluster: Stride must be in (0, Window]")
	}
	if cfg.Expect <= 0 {
		return nil, errors.New("cluster: Expect must be > 0 (the ingest node count)")
	}
	if cfg.Straggler < 0 {
		return nil, errors.New("cluster: Straggler must be >= 0")
	}
	if cfg.Name == "" {
		cfg.Name = "smashd"
	}
	if cfg.Tracker == nil {
		cfg.Tracker = tracker.New()
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	if cfg.IndexOnly {
		cfg.AppliedWindows = -1
	}
	a := &Aggregator{
		cfg:      cfg,
		commit:   stream.NewCommitter(cfg.Name, cfg.Detector, cfg.Tracker, cfg.Sinks, cfg.Metrics, cfg.Tracer, cfg.Logger),
		out:      make(chan stream.WindowResult, 1),
		log:      cfg.Logger,
		in:       make(chan *wire.Fragment, cfg.Buffer),
		done:     make(chan struct{}),
		quit:     make(chan struct{}),
		abnd:     make(chan struct{}),
		nodes:    make(map[string]*nodeState),
		pending:  make(map[int64]map[string]*pendingFrag),
		minSeen:  math.MaxInt64,
		maxSeen:  noWindow,
		nextSeal: noWindow,
	}
	if a.log == nil {
		a.log = obs.Discard()
	}
	if reg := cfg.Metrics; reg != nil {
		a.mWait = reg.Histogram("smash_cluster_fragment_wait_seconds",
			"Wall-clock from a cluster window's first fragment arrival to its seal.")
		a.mHop = reg.Histogram("smash_hop_transit_seconds",
			"Per-hop send-to-accept transit of incoming fragments (clamped at zero under clock skew).")
		a.mE2E = reg.Histogram("smash_e2e_event_to_seal_seconds",
			"Wall-clock from a window's event-time end to its seal here; live windows only (crash-recovery replays are excluded).")
		a.mSealCommit = reg.Histogram("smash_seal_commit_seconds",
			"Wall-clock from a window's sealed index to its committed result (sinks done, result published).")
	}
	if cfg.Tracer != nil || a.mWait != nil {
		a.firstFrag = make(map[int64]time.Time)
	}
	if cfg.FragDir != "" {
		var err error
		a.flog, err = OpenFragLog(cfg.FragDir, cfg.FragSync)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			registerFragLogMetrics(cfg.Metrics, a.flog)
		}
	}
	return a, nil
}

// Start launches the aggregation loop and returns the result channel. The
// channel closes once every expected node has sent its final marker and
// all pending windows have been flushed, or after Stop.
func (a *Aggregator) Start(ctx context.Context) <-chan stream.WindowResult {
	if a.started {
		panic("cluster: Start called twice")
	}
	a.started = true
	go func() {
		// done (closed by run) precedes out, so a consumer that has seen
		// the output channel close can rely on Submit failing from then
		// on.
		defer close(a.out)
		a.run(ctx)
	}()
	return a.out
}

// Tracker exposes the cross-window lineage tracker (for end-of-run
// summaries). Valid once the output channel has closed.
func (a *Aggregator) Tracker() *tracker.Tracker { return a.cfg.Tracker }

// sealWindow commits a sealed window — merged, its Index or Payload
// set — through detection unless the window is empty or the run is
// aborting, then tracker, deltas and sinks, and publishes the result.
// hops is the window's combined hop trail (fragments in sorted node
// order), already folded into spans by seal: the tree's root forwards it
// nowhere, an IndexOnly tier hands it to its sinks instead of detecting,
// so the root sees the whole path.
func (a *Aggregator) sealWindow(ctx context.Context, res *stream.WindowResult, hops []wire.Hop, aborted bool) {
	if a.cfg.IndexOnly {
		res.Hops = hops
	} else {
		if res.Requests > 0 && !aborted && ctx.Err() == nil {
			report, err := a.commit.Detect(ctx, res.Seq, res.Index)
			if err != nil {
				a.setErr(err)
			}
			res.Report = report
		}
		a.commit.Track(res)
	}
	if err := a.commit.Sink(res); err != nil {
		a.setErr(err)
	}
	a.out <- *res
}
