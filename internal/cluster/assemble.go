package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smash/internal/obs"
	"smash/internal/trace"
	"smash/internal/wire"
)

// noWindow marks "no window seen yet" in watermark and seal bookkeeping.
const noWindow = int64(math.MinInt64)

// ErrStopped is returned by Submit once the assembler has shut down — a
// transient condition from a sender's point of view (retry elsewhere or
// give up), unlike the permanent validation errors Submit also returns.
var ErrStopped = errors.New("cluster: aggregator stopped")

// ErrUnavailable wraps fragment-log append failures: the fragment was
// valid but could not be made durable, so the sender should retry (or
// spool) rather than drop it. internal/serve maps it to 503.
var ErrUnavailable = errors.New("cluster: fragment log unavailable")

// Stats is a live snapshot of an assembler's counters.
type Stats struct {
	// Nodes is the number of distinct ingest nodes seen so far.
	Nodes int `json:"nodes"`
	// FinishedNodes counts nodes that sent their final marker.
	FinishedNodes int `json:"finishedNodes"`
	// Fragments counts accepted window fragments (excluding final
	// markers, duplicates and late drops).
	Fragments int `json:"fragments"`
	// DuplicateFragments counts redelivered (node, window) fragments
	// dropped for idempotence.
	DuplicateFragments int `json:"duplicateFragments"`
	// LateFragments counts fragments dropped because their window had
	// already sealed (the straggler policy).
	LateFragments int `json:"lateFragments"`
	// Windows counts emitted windows; EmptyWindows those with no events.
	Windows      int `json:"windows"`
	EmptyWindows int `json:"emptyWindows"`
	// Requests sums merged request counts over emitted windows.
	Requests int `json:"requests"`
	// Replayed counts fragments restored from the fragment log at
	// startup — nonzero only on a run that recovered from a crash.
	Replayed int `json:"replayed"`
}

// SkewWarnThreshold is the estimated clock-skew magnitude past which
// TreeNode.SkewWarn flags a peer.
const SkewWarnThreshold = 2 * time.Second

type nodeState struct {
	last      int64
	finished  bool
	fragments int
	requests  int
	late      int
	lastSeen  time.Time

	// Hop-derived observability state.
	role      string
	skew      time.Duration
	skewKnown bool
	dwell     time.Duration // latest observed spool dwell
	// remotes are deeper senders seen in this node's hop trails — e.g.
	// the ingest shards behind a merge tier. Their skew is relative to
	// the node that stamped the hop's receive time (their parent), not to
	// this process.
	remotes map[string]*nodeState
}

// observeHop folds one stamped hop into the node's skew estimate (EWMA,
// weight 1/4 — stable against transit jitter but converging within a few
// windows) and dwell/role bookkeeping.
func (n *nodeState) observeHop(h *wire.Hop) {
	if h.Role != "" {
		n.role = h.Role
	}
	if h.SpoolDwell > 0 {
		n.dwell = h.SpoolDwell
	}
	if h.Send.IsZero() || h.Recv.IsZero() {
		return
	}
	sample := h.Recv.Sub(h.Send)
	if !n.skewKnown {
		n.skew, n.skewKnown = sample, true
		return
	}
	n.skew += (sample - n.skew) / 4
}

func (n *nodeState) skewSeconds() (*float64, bool) {
	if !n.skewKnown {
		return nil, false
	}
	s := n.skew.Seconds()
	return &s, n.skew >= SkewWarnThreshold || n.skew <= -SkewWarnThreshold
}

// assemblerConfig parameterizes the shared fragment-assembly loop.
type assemblerConfig struct {
	window    time.Duration
	stride    time.Duration
	expect    int
	straggler int
	buffer    int
	log       *slog.Logger
	tr        *obs.Tracer
	// mWait and mSealCommit instrument the shared seal path (nil no-ops).
	mWait, mSealCommit *obs.Histogram
	// mHop observes per-hop send→accept transit (clamped at zero when
	// skew runs it negative); mE2E observes window-end→seal latency for
	// live (non-replayed) windows. Both nil no-op.
	mHop, mE2E *obs.Histogram
	// flog enables crash recovery; nil runs in-memory only.
	flog *FragLog
	// exactlyOnce selects the frontier-commit ordering relative to
	// onSeal: true commits before (the sink is the source of truth and
	// must never see a window twice — a detecting aggregator, whose
	// reconcile against applied redoes at most the interrupted window);
	// false commits after (the downstream dedupes, so a crash between
	// onSeal and commit costs one duplicate delivery — an IndexOnly
	// merge tier).
	exactlyOnce bool
	// applied is the durable sink's lifetime window count at open, used
	// to reconcile the frontier after a crash; -1 trusts the frontier.
	applied int
	// onSeal performs the commit half of a seal (Aggregator.sealWindow)
	// given the merged index of window id w, emitted as sequence seq.
	// hops is the window's combined hop trail (fragments in sorted node
	// order); a merge tier copies it onto the merged fragment so the root
	// sees the whole path.
	onSeal func(ctx context.Context, w int64, seq int, start time.Time, merged *trace.Index, hops []wire.Hop, aborted bool)
}

// pendingFrag is one accepted fragment awaiting its window's seal.
type pendingFrag struct {
	idx      *trace.Index
	hops     []wire.Hop
	replayed bool
}

// assembler is the Aggregator's fragment-assembly loop: it accepts wire
// fragments, aligns them on epoch-derived window ids with
// per-(node, window) dedupe and straggler-policy late drops, merges each
// sealed window's fragments in sorted node order, and hands the merged
// index to onSeal. With a FragLog it is crash-recoverable: Submit makes
// every fragment durable before acking, and run replays the log through
// the same accept path at startup, so a restarted process resumes exactly
// where the dead one stopped.
type assembler struct {
	cfg assemblerConfig
	log *slog.Logger
	tr  *obs.Tracer

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

func newAssembler(cfg assemblerConfig) *assembler {
	s := &assembler{
		cfg:      cfg,
		log:      cfg.log,
		tr:       cfg.tr,
		in:       make(chan *wire.Fragment, cfg.buffer),
		done:     make(chan struct{}),
		quit:     make(chan struct{}),
		abnd:     make(chan struct{}),
		nodes:    make(map[string]*nodeState),
		pending:  make(map[int64]map[string]*pendingFrag),
		minSeen:  math.MaxInt64,
		maxSeen:  noWindow,
		nextSeal: noWindow,
	}
	if s.log == nil {
		s.log = obs.Discard()
	}
	if s.tr != nil || cfg.mWait != nil {
		s.firstFrag = make(map[int64]time.Time)
	}
	return s
}

// Submit hands one decoded fragment to the assembly loop, blocking while
// the inbox is full (that blocking is the cluster's backpressure). With a
// fragment log the fragment is durable before Submit returns, so an ack
// survives kill -9. It fails with ErrStopped once the loop has stopped;
// an ErrUnavailable-wrapped error means the fragment could not be made
// durable and should be retried; any other error marks the fragment
// itself as invalid and will not heal on retry.
func (s *assembler) Submit(frag *wire.Fragment) error {
	if frag.Node == "" {
		return errors.New("cluster: fragment without a node name")
	}
	if !frag.Final {
		if frag.Index == nil {
			return errors.New("cluster: non-final fragment without an index")
		}
		// A child started with another -window/-stride derives ids on a
		// different grid; merged by id it would land in an unrelated slot.
		if !frag.Start.Equal(WindowStart(frag.Window, s.cfg.stride)) || frag.End.Sub(frag.Start) != s.cfg.window {
			return fmt.Errorf("cluster: fragment %d from %s spans [%s, %s), not window %d of this tier's window %v / stride %v; every node of the tree needs the same two",
				frag.Window, frag.Node, frag.Start.Format(time.RFC3339), frag.End.Format(time.RFC3339),
				frag.Window, s.cfg.window, s.cfg.stride)
		}
	}
	select {
	case <-s.done:
		return ErrStopped
	default:
	}
	// Stamp the receive time on the fragment's own transit hop before the
	// log append, so the stamp is durable and a replay reconstructs the
	// original arrival time instead of the replay time.
	if n := len(frag.Hops); n > 0 && frag.Hops[n-1].Recv.IsZero() {
		frag.Hops[n-1].Recv = time.Now().UTC()
	}
	if s.cfg.flog != nil {
		if err := s.cfg.flog.Append(frag); err != nil {
			return fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
	select {
	case s.in <- frag:
		return nil
	case <-s.done:
		return ErrStopped
	}
}

// Stop asks the loop to flush every pending window (in window order,
// without waiting for stragglers) and shut down. Safe to call
// concurrently and more than once.
func (s *assembler) Stop() {
	s.stopOnce.Do(func() { close(s.quit) })
}

// Abandon terminates the loop immediately: no flush, no final results,
// no fragment-log cleanup — alongside FragLog.Close it is the kill -9
// simulator for crash-recovery tests. The on-disk state stays exactly as
// the last acked fragment left it.
func (s *assembler) Abandon() {
	s.abndOnce.Do(func() { close(s.abnd) })
}

// Err returns the first detection, sink, forward or context error, if
// any. Valid once the loop has stopped.
func (s *assembler) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *assembler) setErr(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Stats returns a live snapshot of the assembler's counters.
func (s *assembler) Stats() Stats {
	s.nodeMu.Lock()
	nodes, finished := len(s.nodes), 0
	for _, n := range s.nodes {
		if n.finished {
			finished++
		}
	}
	s.nodeMu.Unlock()
	st := Stats{
		Nodes:              nodes,
		FinishedNodes:      finished,
		Fragments:          int(s.ctrFragments.Load()),
		DuplicateFragments: int(s.ctrDup.Load()),
		LateFragments:      int(s.ctrLate.Load()),
		Windows:            int(s.ctrWindows.Load()),
		EmptyWindows:       int(s.ctrEmpty.Load()),
		Requests:           int(s.ctrRequests.Load()),
	}
	if s.cfg.flog != nil {
		st.Replayed = int(s.cfg.flog.Stats().Replayed)
	}
	return st
}

// accept folds one fragment into the window bookkeeping: node watermark,
// dedupe, late drop, pending index. Called from the run goroutine only —
// both for live arrivals and for startup replay, which is what makes the
// replayed state indistinguishable from having never crashed.
func (s *assembler) accept(frag *wire.Fragment) {
	s.nodeMu.Lock()
	node := s.nodes[frag.Node]
	if node == nil {
		node = &nodeState{last: noWindow}
		s.nodes[frag.Node] = node
		s.log.Info("node joined", "child", frag.Node)
	}
	node.lastSeen = time.Now()
	// Fold the hop trail into per-node observability state: the trail's
	// last hop is the fragment's own transit (role, skew, dwell); earlier
	// hops name deeper senders — the shards behind a merge tier — which
	// become the node's remotes in the topology view.
	if n := len(frag.Hops); n > 0 {
		if h := &frag.Hops[n-1]; h.Node == frag.Node {
			node.observeHop(h)
		}
		for i := 0; i < n-1; i++ {
			h := &frag.Hops[i]
			if h.Node == frag.Node || h.Node == "" {
				continue
			}
			if node.remotes == nil {
				node.remotes = make(map[string]*nodeState)
			}
			r := node.remotes[h.Node]
			if r == nil {
				r = &nodeState{last: noWindow}
				node.remotes[h.Node] = r
			}
			if !frag.Final && frag.Window > r.last {
				r.last = frag.Window
			}
			r.lastSeen = node.lastSeen
			r.observeHop(h)
		}
	}
	if frag.Final {
		node.finished = true
		s.nodeMu.Unlock()
		s.log.Info("node finished", "child", frag.Node, "lastWindow", frag.Window)
		return
	}
	if frag.Window > node.last {
		node.last = frag.Window
	}
	sealed := s.sealedAny && frag.Window < s.nextSeal
	dup := !sealed && s.pending[frag.Window][frag.Node] != nil
	if sealed {
		node.late++
	} else if !dup {
		node.fragments++
		node.requests += frag.Index.RequestCount
	}
	s.nodeMu.Unlock()
	switch {
	case sealed:
		s.ctrLate.Add(1)
		s.log.Warn("late fragment dropped", "child", frag.Node, "windowID", frag.Window)
		return
	case dup:
		s.ctrDup.Add(1)
		s.log.Debug("duplicate fragment dropped", "child", frag.Node, "windowID", frag.Window)
		return
	}
	s.ctrFragments.Add(1)
	w := s.pending[frag.Window]
	if w == nil {
		w = make(map[string]*pendingFrag, s.cfg.expect)
		s.pending[frag.Window] = w
		if s.firstFrag != nil {
			s.firstFrag[frag.Window] = time.Now()
		}
	}
	w[frag.Node] = &pendingFrag{idx: frag.Index, hops: frag.Hops, replayed: s.replaying}
	if frag.Window < s.minSeen {
		s.minSeen = frag.Window
	}
	if frag.Window > s.maxSeen {
		s.maxSeen = frag.Window
	}
}

// watermark is the highest window id known complete: the minimum over
// all expected nodes of their last forwarded window. Unknown nodes hold
// it at -inf; finished nodes lift theirs to +inf.
func (s *assembler) watermark() (int64, bool) {
	s.nodeMu.Lock()
	defer s.nodeMu.Unlock()
	if len(s.nodes) < s.cfg.expect {
		return noWindow, false
	}
	w, allDone := int64(math.MaxInt64), true
	for _, n := range s.nodes {
		if n.finished {
			continue
		}
		allDone = false
		if n.last < w {
			w = n.last
		}
	}
	return w, allDone
}

// seal merges window w's fragments in sorted node order, runs onSeal, and
// advances the durable frontier: in exactly-once mode the frontier
// commits before onSeal's effects (the sink's applied count reconciles a
// crash in between), in at-least-once mode after (the downstream dedupes
// the one window a crash can repeat).
func (s *assembler) seal(ctx context.Context, w int64, aborted bool) {
	sealStart := time.Now()
	seq := int64(s.emitted)
	frags := s.pending[w]
	delete(s.pending, w)
	if s.firstFrag != nil {
		if t0, ok := s.firstFrag[w]; ok {
			delete(s.firstFrag, w)
			d := sealStart.Sub(t0)
			s.tr.Record(seq, "fragments", t0, d, "nodes", strconv.Itoa(len(frags)))
			s.cfg.mWait.Observe(d.Seconds())
		}
	}
	names := make([]string, 0, len(frags))
	for n := range frags {
		names = append(names, n)
	}
	sort.Strings(names)
	merged := trace.NewIndex()
	var hops []wire.Hop
	replayed := false
	for _, n := range names {
		merged.Merge(frags[n].idx)
		hops = append(hops, frags[n].hops...)
		replayed = replayed || frags[n].replayed
	}
	sealedAt := time.Now()

	start := WindowStart(w, s.cfg.stride)
	if s.tr != nil {
		s.tr.Window(seq, start, start.Add(s.cfg.window))
		s.tr.Record(seq, "merge", sealStart, sealedAt.Sub(sealStart),
			"nodes", strconv.Itoa(len(names)), "requests", strconv.Itoa(merged.RequestCount))
	}
	s.recordHops(seq, frags, names)
	if s.cfg.mE2E != nil && !replayed && !aborted {
		s.cfg.mE2E.Observe(max(sealedAt.Sub(start.Add(s.cfg.window)).Seconds(), 0))
	}
	if s.cfg.flog != nil && s.cfg.exactlyOnce {
		if err := s.cfg.flog.Commit(w+1, s.emitted+1); err != nil {
			s.setErr(err)
			s.log.Error("frontier commit failed", "windowID", w, "err", err)
		}
	}
	s.cfg.onSeal(ctx, w, s.emitted, start, merged, hops, aborted)
	if s.cfg.flog != nil {
		if !s.cfg.exactlyOnce {
			if err := s.cfg.flog.Commit(w+1, s.emitted+1); err != nil {
				s.setErr(err)
				s.log.Error("frontier commit failed", "windowID", w, "err", err)
			}
		}
		s.cfg.flog.Remove(w)
	}
	s.cfg.mSealCommit.ObserveSince(sealedAt)
	if merged.RequestCount == 0 {
		s.ctrEmpty.Add(1)
	}
	s.ctrWindows.Add(1)
	s.ctrRequests.Add(int64(merged.RequestCount))
	s.log.Debug("window committed",
		"window", s.emitted, "windowID", w, "nodes", len(names), "requests", merged.RequestCount)
	s.emitted++
	s.sealedAny = true
}

// recordHops folds the sealed window's hop trails into stitched spans
// ("hop:<node>", starting at the sender's send stamp, lasting until the
// receive stamp) and the hop-transit histogram. Replayed fragments are
// span-marked replay="true"; their stamps are the original transit times
// restored from the fragment log, not the replay's.
func (s *assembler) recordHops(seq int64, frags map[string]*pendingFrag, names []string) {
	if s.tr == nil && s.cfg.mHop == nil {
		return
	}
	for _, n := range names {
		pf := frags[n]
		for _, h := range pf.hops {
			if h.Send.IsZero() {
				continue
			}
			var transit time.Duration
			if !h.Recv.IsZero() {
				transit = max(h.Recv.Sub(h.Send), 0)
				s.cfg.mHop.Observe(transit.Seconds())
			}
			attrs := []string{"from", n}
			if h.Role != "" {
				attrs = append(attrs, "role", h.Role)
			}
			if h.Attempts > 1 {
				attrs = append(attrs, "attempts", strconv.Itoa(h.Attempts))
			}
			if h.SpoolDwell > 0 {
				attrs = append(attrs, "spoolDwell", h.SpoolDwell.String())
			}
			if pf.replayed {
				attrs = append(attrs, "replay", "true")
			}
			s.tr.Record(seq, "hop:"+h.Node, h.Send, transit, attrs...)
		}
	}
}

// flush seals every remaining window in order, report-less when the
// context has been cancelled. A cancelled assembler with a fragment log
// instead stops crash-consistent: pending windows stay on disk and the
// next run resumes them, which is the durable tier's shutdown semantics.
func (s *assembler) flush(ctx context.Context) {
	if ctx.Err() != nil && s.cfg.flog != nil {
		return
	}
	for ; s.sealedAny && s.nextSeal <= s.maxSeen; s.nextSeal++ {
		s.seal(ctx, s.nextSeal, ctx.Err() != nil)
	}
	if !s.sealedAny && s.maxSeen != noWindow {
		for s.nextSeal = s.minSeen; s.nextSeal <= s.maxSeen; s.nextSeal++ {
			s.seal(ctx, s.nextSeal, ctx.Err() != nil)
		}
	}
}

// evaluate runs the watermark/straggler sealing policy after new
// fragments arrived; it reports whether every expected node has finished
// (after flushing).
func (s *assembler) evaluate(ctx context.Context) (finished bool) {
	wm, allDone := s.watermark()
	if allDone {
		s.flush(ctx)
		return true
	}
	if s.maxSeen == noWindow {
		return false
	}
	if !s.sealedAny {
		s.nextSeal = s.minSeen
	}
	for s.nextSeal <= s.maxSeen {
		ready := s.nextSeal <= wm ||
			(s.cfg.straggler > 0 && s.maxSeen-s.nextSeal >= int64(s.cfg.straggler))
		if !ready {
			break
		}
		s.seal(ctx, s.nextSeal, false)
		s.nextSeal++
	}
	return false
}

// resume restores the crash frontier and replays the fragment log
// through accept, leaving the loop exactly where the previous process
// stopped. The reconcile rule: the frontier is written before a seal's
// effects reach the sink, so after a crash it runs at most one window
// ahead of the sink's applied count — equal means the seal completed,
// one ahead means it was interrupted and the window is redone from its
// surviving log file (its fragment set is frozen: later arrivals were
// already late-dropped and are excluded from the log by the frontier
// floor). Anything else means the state dir and the sink belong to
// different runs, which is fatal.
func (s *assembler) resume(ctx context.Context) error {
	flog := s.cfg.flog
	if fr, ok := flog.Frontier(); ok {
		emitted, nextSeal := fr.Emitted, fr.NextSeal
		switch {
		case s.cfg.applied < 0 || s.cfg.applied == emitted:
			// The interrupted run's last seal fully committed.
		case s.cfg.applied == emitted-1:
			emitted--
			nextSeal--
			s.log.Warn("seal interrupted by crash; redoing window",
				"windowID", nextSeal, "window", emitted)
		default:
			return fmt.Errorf("cluster: fragment log frontier says %d windows emitted but the sink applied %d; state dir from a different run?",
				emitted, s.cfg.applied)
		}
		s.emitted, s.nextSeal, s.sealedAny = emitted, nextSeal, emitted > 0
	}
	flog.RemoveBelow(s.nextSeal)
	s.replaying = true
	err := flog.Replay(func(frag *wire.Fragment) error {
		s.accept(frag)
		return nil
	})
	s.replaying = false
	if err != nil {
		return err
	}
	if n := flog.Stats().Replayed; n > 0 || s.emitted > 0 {
		s.log.Info("resumed from fragment log",
			"replayed", n, "windows", s.emitted, "nextSeal", s.nextSeal)
	}
	return nil
}

// finish disposes of the fragment log at loop exit: a clean completion
// leaves an empty directory; a cancelled one keeps the pending state for
// the next run.
func (s *assembler) finish(ctx context.Context) {
	if s.cfg.flog == nil {
		return
	}
	if ctx.Err() == nil {
		if err := s.cfg.flog.Clean(); err != nil {
			s.log.Warn("fragment log cleanup failed", "err", err)
		}
	} else {
		s.cfg.flog.Close()
	}
}

// run is the single assembly goroutine: it owns all window bookkeeping
// and seals in window order, so worker-free sequencing is the
// determinism guarantee (fragment arrival order never changes output).
func (s *assembler) run(ctx context.Context) {
	// done closes when the loop exits, so a caller that has seen the
	// output side complete can rely on Submit failing from then on.
	defer close(s.done)
	s.log.Info("assembler starting",
		"window", s.cfg.window, "stride", s.cfg.stride,
		"expect", s.cfg.expect, "straggler", s.cfg.straggler,
		"recovery", s.cfg.flog != nil)
	defer func() { s.log.Info("assembler stopped", "windows", s.emitted) }()

	if s.cfg.flog != nil {
		if err := s.resume(ctx); err != nil {
			s.setErr(err)
			s.log.Error("fragment log recovery failed", "err", err)
			s.cfg.flog.Close()
			return
		}
		// Replay may already complete the run (every final marker was
		// logged before the crash).
		if s.evaluate(ctx) {
			s.finish(ctx)
			return
		}
	}

	for {
		select {
		case frag := <-s.in:
			s.accept(frag)
		case <-s.quit:
			// Drain fragments already accepted into the inbox before
			// flushing, so Stop never discards a buffered submission.
		drain:
			for {
				select {
				case frag := <-s.in:
					s.accept(frag)
				default:
					break drain
				}
			}
			s.flush(ctx)
			s.finish(ctx)
			return
		case <-s.abnd:
			if s.cfg.flog != nil {
				s.cfg.flog.Close()
			}
			return
		case <-ctx.Done():
			s.setErr(ctx.Err())
			s.flush(ctx)
			s.finish(ctx)
			return
		}
		if s.evaluate(ctx) {
			s.finish(ctx)
			return
		}
	}
}

// registerFragLogMetrics exposes a fragment log's counters on reg.
func registerFragLogMetrics(reg *obs.Registry, l *FragLog) {
	reg.CounterFunc("smash_cluster_fraglog_appends_total",
		"Fragments made durable in the fragment log before acknowledgement.",
		func(emit obs.Emit) { emit(float64(l.Stats().Appends)) })
	reg.CounterFunc("smash_cluster_replayed_fragments_total",
		"Fragments replayed from the fragment log at startup (crash recovery).",
		func(emit obs.Emit) { emit(float64(l.Stats().Replayed)) })
	reg.GaugeFunc("smash_cluster_fraglog_bytes",
		"Current on-disk size of the fragment log.",
		func(emit obs.Emit) { emit(float64(l.Stats().Bytes)) })
}
