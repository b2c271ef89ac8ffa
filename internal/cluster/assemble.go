package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"smash/internal/obs"
	"smash/internal/stream"
	"smash/internal/wire"
)

// noWindow marks "no window seen yet" in watermark and seal bookkeeping.
const noWindow = int64(math.MinInt64)

// ErrStopped is returned by Submit once the aggregator has shut down — a
// transient condition from a sender's point of view (retry elsewhere or
// give up), unlike the permanent validation errors Submit also returns.
var ErrStopped = errors.New("cluster: aggregator stopped")

// ErrUnavailable wraps fragment-log append failures: the fragment was
// valid but could not be made durable, so the sender should retry (or
// spool) rather than drop it. internal/serve maps it to 503.
var ErrUnavailable = errors.New("cluster: fragment log unavailable")

// Stats is a live snapshot of an aggregator's counters.
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

// pendingFrag is one accepted fragment awaiting its window's seal.
type pendingFrag struct {
	payload  []byte
	requests int
	hops     []wire.Hop
	replayed bool
}

// Submit hands one decoded fragment (wire.DecodeFragment output: its index
// is a validated Payload) to the assembly loop, blocking while the inbox
// is full (that blocking is the cluster's backpressure). From the call on
// the aggregator owns frag and its Payload; the caller must not touch
// either again. With a fragment log the fragment is durable before Submit
// returns, so an ack survives kill -9. It fails with ErrStopped once the
// loop has stopped; an ErrUnavailable-wrapped error means the fragment
// could not be made durable and should be retried; any other error marks
// the fragment itself as invalid and will not heal on retry.
func (a *Aggregator) Submit(frag *wire.Fragment) error {
	if frag.Node == "" {
		return errors.New("cluster: fragment without a node name")
	}
	if !frag.Final {
		if frag.Payload == nil {
			return errors.New("cluster: non-final fragment without an index payload")
		}
		// A child started with another -window/-stride derives ids on a
		// different grid; merged by id it would land in an unrelated slot.
		if !frag.Start.Equal(WindowStart(frag.Window, a.cfg.Stride)) || frag.End.Sub(frag.Start) != a.cfg.Window {
			return fmt.Errorf("cluster: fragment %d from %s spans [%s, %s), not window %d of this tier's window %v / stride %v; every node of the tree needs the same two",
				frag.Window, frag.Node, frag.Start.Format(time.RFC3339), frag.End.Format(time.RFC3339),
				frag.Window, a.cfg.Window, a.cfg.Stride)
		}
	}
	select {
	case <-a.done:
		return ErrStopped
	default:
	}
	// Stamp the receive time on the fragment's own transit hop before the
	// log append, so the stamp is durable and a replay reconstructs the
	// original arrival time instead of the replay time.
	if n := len(frag.Hops); n > 0 && frag.Hops[n-1].Recv.IsZero() {
		frag.Hops[n-1].Recv = time.Now().UTC()
	}
	if a.flog != nil {
		if err := a.flog.Append(frag); err != nil {
			return fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
	select {
	case a.in <- frag:
		return nil
	case <-a.done:
		return ErrStopped
	}
}

// Stop asks the loop to flush every pending window (in window order,
// without waiting for stragglers) and shut down. Safe to call
// concurrently and more than once.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() { close(a.quit) })
}

// Abandon terminates the loop immediately: no flush, no final results,
// no fragment-log cleanup — alongside FragLog.Close it is the kill -9
// simulator for crash-recovery tests. The on-disk state stays exactly as
// the last acked fragment left it.
func (a *Aggregator) Abandon() {
	a.abndOnce.Do(func() { close(a.abnd) })
}

// Err returns the first detection, sink, forward or context error, if
// any. Valid once the loop has stopped.
func (a *Aggregator) Err() error {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	return a.err
}

func (a *Aggregator) setErr(err error) {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	if a.err == nil {
		a.err = err
	}
}

// Stats returns a live snapshot of the aggregator's counters.
func (a *Aggregator) Stats() Stats {
	a.nodeMu.Lock()
	nodes, finished := len(a.nodes), 0
	for _, n := range a.nodes {
		if n.finished {
			finished++
		}
	}
	a.nodeMu.Unlock()
	st := Stats{
		Nodes:              nodes,
		FinishedNodes:      finished,
		Fragments:          int(a.ctrFragments.Load()),
		DuplicateFragments: int(a.ctrDup.Load()),
		LateFragments:      int(a.ctrLate.Load()),
		Windows:            int(a.ctrWindows.Load()),
		EmptyWindows:       int(a.ctrEmpty.Load()),
		Requests:           int(a.ctrRequests.Load()),
	}
	if a.flog != nil {
		st.Replayed = int(a.flog.Stats().Replayed)
	}
	return st
}

// accept folds one fragment into the window bookkeeping: node watermark,
// dedupe, late drop, pending index. Called from the run goroutine only —
// both for live arrivals and for startup replay, which is what makes the
// replayed state indistinguishable from having never crashed.
func (a *Aggregator) accept(frag *wire.Fragment) {
	a.nodeMu.Lock()
	node := a.nodes[frag.Node]
	if node == nil {
		node = &nodeState{last: noWindow}
		a.nodes[frag.Node] = node
		a.log.Info("node joined", "child", frag.Node)
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
		a.nodeMu.Unlock()
		a.log.Info("node finished", "child", frag.Node, "lastWindow", frag.Window)
		return
	}
	if frag.Window > node.last {
		node.last = frag.Window
	}
	sealed := a.sealedAny && frag.Window < a.nextSeal
	dup := !sealed && a.pending[frag.Window][frag.Node] != nil
	requests := wire.IndexRequests(frag.Payload)
	if sealed {
		node.late++
	} else if !dup {
		node.fragments++
		node.requests += requests
	}
	a.nodeMu.Unlock()
	switch {
	case sealed:
		a.ctrLate.Add(1)
		a.log.Warn("late fragment dropped", "child", frag.Node, "windowID", frag.Window)
		return
	case dup:
		a.ctrDup.Add(1)
		a.log.Debug("duplicate fragment dropped", "child", frag.Node, "windowID", frag.Window)
		return
	}
	a.ctrFragments.Add(1)
	w := a.pending[frag.Window]
	if w == nil {
		w = make(map[string]*pendingFrag, a.cfg.Expect)
		a.pending[frag.Window] = w
		if a.firstFrag != nil {
			a.firstFrag[frag.Window] = time.Now()
		}
	}
	w[frag.Node] = &pendingFrag{payload: frag.Payload, requests: requests, hops: frag.Hops, replayed: a.replaying}
	if frag.Window < a.minSeen {
		a.minSeen = frag.Window
	}
	if frag.Window > a.maxSeen {
		a.maxSeen = frag.Window
	}
}

// watermark is the highest window id known complete: the minimum over
// all expected nodes of their last forwarded window. Unknown nodes hold
// it at -inf; finished nodes lift theirs to +inf.
func (a *Aggregator) watermark() (int64, bool) {
	a.nodeMu.Lock()
	defer a.nodeMu.Unlock()
	if len(a.nodes) < a.cfg.Expect {
		return noWindow, false
	}
	w, allDone := int64(math.MaxInt64), true
	for _, n := range a.nodes {
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

// seal merges window w's fragments in sorted node order, commits the
// merged index through sealWindow, and advances the durable frontier. A
// detecting aggregator commits the frontier before sealWindow's effects
// (its sinks must never see a window twice; their applied count
// reconciles a crash in between), an IndexOnly tier after (the parent
// dedupes the one window a crash can repeat).
func (a *Aggregator) seal(ctx context.Context, w int64, aborted bool) {
	sealStart := time.Now()
	seq := int64(a.emitted)
	frags := a.pending[w]
	delete(a.pending, w)
	if a.firstFrag != nil {
		if t0, ok := a.firstFrag[w]; ok {
			delete(a.firstFrag, w)
			d := sealStart.Sub(t0)
			a.cfg.Tracer.Record(seq, "fragments", t0, d, "nodes", strconv.Itoa(len(frags)))
			a.mWait.Observe(d.Seconds())
		}
	}
	names := make([]string, 0, len(frags))
	for n := range frags {
		names = append(names, n)
	}
	sort.Strings(names)
	// Payloads merge as bytes; only a detecting root decodes the result.
	payloads := make([][]byte, 0, len(names))
	var hops []wire.Hop
	replayed := false
	start := WindowStart(w, a.cfg.Stride)
	res := stream.WindowResult{Seq: a.emitted, Start: start, End: start.Add(a.cfg.Window)}
	for _, n := range names {
		payloads = append(payloads, frags[n].payload)
		res.Requests += frags[n].requests
		hops = append(hops, frags[n].hops...)
		replayed = replayed || frags[n].replayed
	}
	if err := a.mergeWindow(&res, payloads); err != nil {
		a.setErr(fmt.Errorf("cluster: window %d: %w", w, err))
		a.log.Error("window merge failed; sealing it empty", "windowID", w, "err", err)
		res.Requests, aborted = 0, true
		_ = a.mergeWindow(&res, nil) // the empty index cannot fail
	}
	sealedAt := time.Now()

	if a.cfg.Tracer != nil {
		a.cfg.Tracer.Window(seq, start, start.Add(a.cfg.Window))
		a.cfg.Tracer.Record(seq, "merge", sealStart, sealedAt.Sub(sealStart),
			"nodes", strconv.Itoa(len(names)), "requests", strconv.Itoa(res.Requests))
	}
	a.recordHops(seq, frags, names)
	if a.mE2E != nil && !replayed && !aborted {
		a.mE2E.Observe(max(sealedAt.Sub(start.Add(a.cfg.Window)).Seconds(), 0))
	}
	if !a.cfg.IndexOnly {
		a.commitFrontier(w)
	}
	a.sealWindow(ctx, &res, hops, aborted)
	if a.cfg.IndexOnly {
		a.commitFrontier(w)
	}
	if a.flog != nil {
		a.flog.Remove(w)
	}
	a.mSealCommit.ObserveSince(sealedAt)
	if res.Requests == 0 {
		a.ctrEmpty.Add(1)
	}
	a.ctrWindows.Add(1)
	a.ctrRequests.Add(int64(res.Requests))
	a.log.Debug("window committed",
		"window", a.emitted, "windowID", w, "nodes", len(names), "requests", res.Requests)
	a.emitted++
	a.sealedAny = true
}

// mergeWindow sets res's index from a window's fragment payloads: the
// merged bytes on a merge tier, which forwards them as they are, and
// their decoding at a detecting root, the one place a window decodes.
func (a *Aggregator) mergeWindow(res *stream.WindowResult, payloads [][]byte) (err error) {
	if len(payloads) == 1 {
		res.Payload = payloads[0]
	} else if res.Payload, err = wire.MergeIndexes(payloads); err != nil {
		return err
	}
	if !a.cfg.IndexOnly {
		res.Index, err = wire.DecodeIndex(res.Payload)
		res.Payload = nil
	}
	return err
}

// commitFrontier durably records window w as sealed, if there is a
// fragment log.
func (a *Aggregator) commitFrontier(w int64) {
	if a.flog == nil {
		return
	}
	if err := a.flog.Commit(w+1, a.emitted+1); err != nil {
		a.setErr(err)
		a.log.Error("frontier commit failed", "windowID", w, "err", err)
	}
}

// recordHops folds the sealed window's hop trails into stitched spans
// ("hop:<node>", starting at the sender's send stamp, lasting until the
// receive stamp) and the hop-transit histogram. Replayed fragments are
// span-marked replay="true"; their stamps are the original transit times
// restored from the fragment log, not the replay'a.
func (a *Aggregator) recordHops(seq int64, frags map[string]*pendingFrag, names []string) {
	if a.cfg.Tracer == nil && a.mHop == nil {
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
				a.mHop.Observe(transit.Seconds())
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
			a.cfg.Tracer.Record(seq, "hop:"+h.Node, h.Send, transit, attrs...)
		}
	}
}

// flush seals every remaining window in order, report-less when the
// context has been cancelled. A cancelled aggregator with a fragment log
// instead stops crash-consistent: pending windows stay on disk and the
// next run resumes them, which is the durable tier's shutdown semantics.
func (a *Aggregator) flush(ctx context.Context) {
	if ctx.Err() != nil && a.flog != nil {
		return
	}
	for ; a.sealedAny && a.nextSeal <= a.maxSeen; a.nextSeal++ {
		a.seal(ctx, a.nextSeal, ctx.Err() != nil)
	}
	if !a.sealedAny && a.maxSeen != noWindow {
		for a.nextSeal = a.minSeen; a.nextSeal <= a.maxSeen; a.nextSeal++ {
			a.seal(ctx, a.nextSeal, ctx.Err() != nil)
		}
	}
}

// evaluate runs the watermark/straggler sealing policy after new
// fragments arrived; it reports whether every expected node has finished
// (after flushing).
func (a *Aggregator) evaluate(ctx context.Context) (finished bool) {
	wm, allDone := a.watermark()
	if allDone {
		a.flush(ctx)
		return true
	}
	if a.maxSeen == noWindow {
		return false
	}
	if !a.sealedAny {
		a.nextSeal = a.minSeen
	}
	for a.nextSeal <= a.maxSeen {
		ready := a.nextSeal <= wm ||
			(a.cfg.Straggler > 0 && a.maxSeen-a.nextSeal >= int64(a.cfg.Straggler))
		if !ready {
			break
		}
		a.seal(ctx, a.nextSeal, false)
		a.nextSeal++
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
func (a *Aggregator) resume(ctx context.Context) error {
	flog := a.flog
	if fr, ok := flog.Frontier(); ok {
		emitted, nextSeal := fr.Emitted, fr.NextSeal
		switch {
		case a.cfg.AppliedWindows < 0 || a.cfg.AppliedWindows == emitted:
			// The interrupted run's last seal fully committed.
		case a.cfg.AppliedWindows == emitted-1:
			emitted--
			nextSeal--
			a.log.Warn("seal interrupted by crash; redoing window",
				"windowID", nextSeal, "window", emitted)
		default:
			return fmt.Errorf("cluster: fragment log frontier says %d windows emitted but the sink applied %d; state dir from a different run?",
				emitted, a.cfg.AppliedWindows)
		}
		a.emitted, a.nextSeal, a.sealedAny = emitted, nextSeal, emitted > 0
	}
	flog.RemoveBelow(a.nextSeal)
	a.replaying = true
	err := flog.Replay(func(frag *wire.Fragment) error {
		a.accept(frag)
		return nil
	})
	a.replaying = false
	if err != nil {
		return err
	}
	if n := flog.Stats().Replayed; n > 0 || a.emitted > 0 {
		a.log.Info("resumed from fragment log",
			"replayed", n, "windows", a.emitted, "nextSeal", a.nextSeal)
	}
	return nil
}

// finish disposes of the fragment log at loop exit: a clean completion
// leaves an empty directory; a cancelled one keeps the pending state for
// the next run.
func (a *Aggregator) finish(ctx context.Context) {
	if a.flog == nil {
		return
	}
	if ctx.Err() == nil {
		if err := a.flog.Clean(); err != nil {
			a.log.Warn("fragment log cleanup failed", "err", err)
		}
	} else {
		a.flog.Close()
	}
}

// run is the single assembly goroutine: it owns all window bookkeeping
// and seals in window order, so worker-free sequencing is the
// determinism guarantee (fragment arrival order never changes output).
func (a *Aggregator) run(ctx context.Context) {
	// done closes when the loop exits, so a caller that has seen the
	// output side complete can rely on Submit failing from then on.
	defer close(a.done)
	a.log.Info("aggregator starting",
		"window", a.cfg.Window, "stride", a.cfg.Stride,
		"expect", a.cfg.Expect, "straggler", a.cfg.Straggler,
		"recovery", a.flog != nil)
	defer func() { a.log.Info("aggregator stopped", "windows", a.emitted) }()

	if a.flog != nil {
		if err := a.resume(ctx); err != nil {
			a.setErr(err)
			a.log.Error("fragment log recovery failed", "err", err)
			a.flog.Close()
			return
		}
		// Replay may already complete the run (every final marker was
		// logged before the crash).
		if a.evaluate(ctx) {
			a.finish(ctx)
			return
		}
	}

	for {
		select {
		case frag := <-a.in:
			a.accept(frag)
		case <-a.quit:
			// Drain fragments already accepted into the inbox before
			// flushing, so Stop never discards a buffered submission.
		drain:
			for {
				select {
				case frag := <-a.in:
					a.accept(frag)
				default:
					break drain
				}
			}
			a.flush(ctx)
			a.finish(ctx)
			return
		case <-a.abnd:
			if a.flog != nil {
				a.flog.Close()
			}
			return
		case <-ctx.Done():
			a.setErr(ctx.Err())
			a.flush(ctx)
			a.finish(ctx)
			return
		}
		if a.evaluate(ctx) {
			a.finish(ctx)
			return
		}
	}
}

// registerFragLogMetrics exposes a fragment log's appends and on-disk
// size on reg (its replay count is /v1/stats' .cluster.replayed).
func registerFragLogMetrics(reg *obs.Registry, l *FragLog) {
	reg.CounterFunc("smash_cluster_fraglog_appends_total",
		"Fragments made durable in the fragment log before acknowledgement.",
		func(emit obs.Emit) { emit(float64(l.Stats().Appends)) })
	reg.GaugeFunc("smash_cluster_fraglog_bytes",
		"Current on-disk size of the fragment log.",
		func(emit obs.Emit) { emit(float64(l.Stats().Bytes)) })
}
