// Package stream is SMASH's streaming ingestion engine: the piece that
// turns the batch core.Pipeline into a long-running detection service. The
// paper positions SMASH as a system that "can be run everyday to detect
// daily malicious activities" (§I); this package generalizes "everyday" to
// arbitrary tumbling or sliding time windows over a continuous event feed.
//
// The pipeline is:
//
//	Source ──(slabs, bounded)──▶ windower ──(per-shard sub-slabs)──▶ N index shards
//	                                │                                  │ (barrier: hand over fragments)
//	                                └──▶ sealer (fragment ring) ──▶ detection worker pool
//	                                          ▲                              │
//	                            admission: ≤ Workers windows                 │
//	                            sealed but not yet detected                  │
//	                              sequencer ◀────────────────────────────────┘
//	                         (reorders windows, feeds tracker,
//	                          emits WindowResults with deltas)
//
// Events move in slabs: the reader asks the Source for a batch of what it
// already holds (Source.ReadBatch) and hands the whole slab to the
// windower over a channel bounded in events (Config.Buffer), so when
// downstream detection cannot keep up, reads stall rather than buffering
// unboundedly. The windower assigns each event its windows, hashes it by
// server key to one of Config.Shards shard goroutines and routes it into
// that shard's sub-slab together with the key and its fragment id; the
// sub-slabs go out at the end of every slab and before every seal
// barrier, so channel FIFO keeps each event ahead of the barrier that
// follows it. Each shard indexes its sub-slabs through a private
// trace.Interner front cache into partial trace.Index fragments;
// trace.Index aggregation commutes, so the sharded build is bit-identical
// to a sequential one. An IndexOnly engine, which only ships windows,
// never builds an index: its shards log interned ids (trace.Log) and its
// sealer encodes them straight to wire bytes (wire.EncodeLogs). When the
// watermark (max event time minus Config.Watermark) passes a window's
// end the window is sealed and its merged index is dispatched to a pool
// of Config.Workers detection workers. A window takes one of
// Config.Workers admission slots when it is sealed and gives it back only
// when its detection has finished, so at most Workers windows are ever
// sealed but not yet detected: a saturated engine stalls its reader
// instead of queueing windows. Finished windows
// are re-sequenced into window order and committed — tracker, deltas,
// sinks — by the Committer, the same back half internal/cluster's
// aggregator runs on its merged windows, and emitted on the output channel
// as WindowResults.
//
// # Incremental sliding windows
//
// Every configuration assembles windows the same way. Time is cut into
// fragments of width g = gcd(Window, Stride), so a window is
// a = Window/g consecutive fragments and consecutive windows start
// b = Stride/g fragments apart: window w is fragments [w*b, w*b+a).
// Shards accumulate one index per fragment — each event is indexed
// exactly once, not once per overlapping window — and a single sealer
// goroutine keeps a ring of the live merged fragments. Sealing window w
// folds in the fragments that arrived since the previous seal, merges the
// ring in ascending fragment order on top of the first expiring fragment
// (one below (w+1)*b, which no later window needs and so becomes the
// window index zero-copy) and drops the expiring ones. When the stride
// divides the window (every tumbling config, and any sliding config with
// window = k*stride) g is the stride, b is 1 and the ring is the k live
// per-stride fragments with exactly one evicted per seal. The ring and
// the shard maps are keyed by fragment id and hold one entry per distinct
// *non-empty* fragment, so their size is bounded by the events in a
// window however small g is — nothing ever iterates the id range (a is
// ~10^12 for coprime durations). All indexes of one symbol epoch share
// one trace.Symbols, so merges on this path are pure integer-map folds,
// and a fragment that is consumed whole — a shard's hand-over, an
// expiring ring entry — is absorbed: the window adopts the servers it
// lacks instead of copying them. Only live ring entries are copied in.
//
// The engine is deterministic for a fixed input order and configuration:
// shard and worker counts change wall-clock time, never output.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// Config parameterizes an Engine.
type Config struct {
	// Name labels emitted window reports (default "stream").
	Name string
	// Window is the detection window size (required, > 0).
	Window time.Duration
	// Stride is the window start spacing. 0 defaults to Window (tumbling
	// windows); Stride < Window yields overlapping sliding windows, where
	// one event lands in Window/Stride consecutive windows.
	Stride time.Duration
	// Watermark is the allowed event lateness: a window [start, end) seals
	// only once an event with Time >= end+Watermark arrives (or the stream
	// ends). Out-of-order events older than the watermark are dropped and
	// counted in Stats.Late.
	Watermark time.Duration
	// Origin anchors window starts (windows begin at Origin + k*Stride,
	// k >= 0). Zero derives the origin from the first event's time
	// truncated to Stride — for day-long strides that is UTC midnight.
	Origin time.Time
	// Workers is the detection worker pool size (default 1). More workers
	// overlap detection of distinct windows; output is unaffected. It is
	// also the admission bound: at most Workers windows are sealed but
	// not yet detected, and sealing the next one waits for a detection to
	// finish.
	Workers int
	// Shards is the number of concurrent index-builder shards (default 4).
	Shards int
	// Buffer bounds, in events, how far the source reader may run ahead
	// of windowing (default 1024). Events travel in slabs, so the channel
	// holds ⌈Buffer/slab size⌉ slabs.
	Buffer int
	// Detector configures the core.Pipeline run on every sealed window.
	Detector []core.Option
	// RotateSymbolsEvery is the number of sealed windows between engine
	// symbol-table rotations. Interned symbol tables and their memo
	// caches only ever grow, so an endless stream of near-unique keys
	// (domain flux hostnames, nonce-bearing query strings) would grow
	// them without bound; rotation swaps in fresh tables and lets the old
	// epoch be collected once its last in-flight window retires.
	// Fragments from different epochs merge through the name-remap path,
	// so rotation never changes output. 0 uses
	// DefaultRotateSymbolsEvery; negative disables rotation.
	RotateSymbolsEvery int
	// Tracker overrides the lineage tracker (default tracker.New()).
	Tracker *tracker.Tracker
	// Sinks receive every emitted WindowResult in window order, before it
	// is published on the output channel (see Sink).
	Sinks []Sink
	// KeepIndex publishes each window's merged traffic index on
	// WindowResult.Index (read-only for consumers) on a detecting engine.
	// Off by default: the index is normally garbage the moment detection
	// finishes, and keeping it alive extends its lifetime to the consumer's.
	KeepIndex bool
	// IndexOnly turns the engine into a pure windowing node: no index is
	// built, detection and the tracker are skipped, and every window is
	// emitted as WindowResult.Payload, its index's wire encoding — never
	// as Index. This is cluster ingest mode: internal/cluster's Forwarder
	// ships the bytes to an aggregator that runs detection over the merged
	// cluster-wide window.
	IndexOnly bool
	// Metrics registers the engine's latency histograms (ingest->seal,
	// seal->commit, detection, per-stage, per-sink) and the watermark-lag
	// gauge on this registry. Nil disables metrics.
	Metrics *obs.Registry
	// Tracer records each window's lifecycle spans (build, seal, detect and
	// its stages, sink consumes). Nil disables tracing.
	Tracer *obs.Tracer
	// Logger receives structured engine logs. Nil discards them.
	Logger *slog.Logger
}

// Stats is a snapshot of the engine's activity counters. Counters are
// monotonic and safe to read while the engine runs (the live /v1/stats
// path); they are final once the output channel has closed.
type Stats struct {
	// Events is the number of events accepted into windows.
	Events int `json:"events"`
	// Late is the number of events dropped because every window containing
	// them had already sealed.
	Late int `json:"late"`
	// Windows is the number of WindowResults emitted.
	Windows int `json:"windows"`
	// EmptyWindows counts emitted windows that contained no events.
	EmptyWindows int `json:"emptyWindows"`
}

// Engine is a running streaming detection pipeline. Create with New, start
// with Start, consume the returned channel, then inspect Err, Stats and
// Tracker.
type Engine struct {
	cfg Config
	// commit is the detect -> track -> sink back half shared with
	// internal/cluster's aggregator.
	commit *Committer
	out    chan WindowResult
	// o bundles the seal-side observability wiring (tracer, logger,
	// instruments); its zero value is fully inert, so unwired engines pay
	// only nil checks on the hot path.
	o engineObs

	// syms is the engine-wide symbol table epoch: every fragment, ring
	// entry and window index interns through the current epoch, so merges
	// are integer-map folds and hot keys are hashed once per epoch. The
	// windower rotates epochs every Config.RotateSymbolsEvery windows to
	// bound table growth on endless streams.
	syms atomic.Pointer[trace.Symbols]

	// ctx is the run context given to StartContext; its cancellation
	// stops ingestion and aborts in-flight window detections.
	ctx  context.Context
	done chan struct{} // closed once the output channel has closed

	quit     chan struct{}
	stopOnce sync.Once
	started  bool
	// readerState lets the windower's Stop drain distinguish "a slab may
	// still be in flight to the channel" (running) from "the reader is
	// parked inside Source.ReadBatch or gone" — see windower's quit branch.
	readerState atomic.Int32

	errMu sync.Mutex
	err   error

	// Counters are atomics so Stats() may be read live from HTTP serving
	// goroutines while the windower and sequencer update them.
	ctrEvents, ctrLate, ctrWindows, ctrEmpty atomic.Int64
	// maxEvent is the newest event time ingested (UnixNano; noEvent
	// before the first), published once per slab for the lag gauge.
	maxEvent atomic.Int64
}

// noEvent marks Engine.maxEvent before the first event.
const noEvent = math.MinInt64

// New validates the config and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Window <= 0 {
		return nil, errors.New("stream: Window must be > 0")
	}
	if cfg.Stride == 0 {
		cfg.Stride = cfg.Window
	}
	if cfg.Stride < 0 || cfg.Stride > cfg.Window {
		return nil, errors.New("stream: Stride must be in (0, Window]")
	}
	if cfg.Watermark < 0 {
		return nil, errors.New("stream: Watermark must be >= 0")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1024
	}
	if cfg.Name == "" {
		cfg.Name = "stream"
	}
	if cfg.Tracker == nil {
		cfg.Tracker = tracker.New()
	}
	if cfg.RotateSymbolsEvery == 0 {
		cfg.RotateSymbolsEvery = DefaultRotateSymbolsEvery
	}
	e := &Engine{
		cfg:    cfg,
		commit: NewCommitter(cfg.Name, cfg.Detector, cfg.Tracker, cfg.Sinks, cfg.Metrics, cfg.Tracer, cfg.Logger),
		out:    make(chan WindowResult, cfg.Workers),
		done:   make(chan struct{}),
		quit:   make(chan struct{}),
	}
	e.syms.Store(trace.NewSymbols())
	e.o = newEngineObs(cfg.Metrics, cfg.Tracer, cfg.Logger)
	e.maxEvent.Store(noEvent)
	if cfg.Metrics != nil {
		e.registerLag(cfg.Metrics)
	}
	return e, nil
}

// DefaultRotateSymbolsEvery bounds symbol-table growth: with day-scale
// windows it rotates roughly once a quarter; with minute-scale windows,
// a few times a day.
const DefaultRotateSymbolsEvery = 128

// symbols returns the current symbol-table epoch.
func (e *Engine) symbols() *trace.Symbols { return e.syms.Load() }

// fragGeometry returns the fragment width g = gcd(Window, Stride) and the
// number of fragments per window (a) and per stride (b): window w is
// fragments [w*b, w*b+a).
func (e *Engine) fragGeometry() (g time.Duration, a, b int64) {
	g = e.cfg.Window
	for r := e.cfg.Stride; r != 0; {
		g, r = r, g%r
	}
	return g, int64(e.cfg.Window / g), int64(e.cfg.Stride / g)
}

// Start launches the pipeline over src and returns the result channel. The
// channel closes once the source is exhausted (or Stop is called) and every
// in-flight window has been sealed, detected and emitted. Start may be
// called once. Start is StartContext with a background context.
func (e *Engine) Start(src Source) <-chan WindowResult {
	return e.StartContext(context.Background(), src)
}

// StartContext is Start bound to a context: when ctx is cancelled the
// engine stops ingesting (as if Stop had been called) AND cancels in-flight
// window detections — each detection worker's core pipeline aborts at its
// next stage boundary, the affected windows are emitted without reports,
// and Err reports ctx.Err(). This is the hard-shutdown path; Stop alone
// remains the graceful drain that lets in-flight detections finish.
func (e *Engine) StartContext(ctx context.Context, src Source) <-chan WindowResult {
	if e.started {
		panic("stream: Start called twice")
	}
	e.started = true
	e.ctx = ctx
	e.o.log.Info("engine starting",
		"name", e.cfg.Name, "window", e.cfg.Window, "stride", e.cfg.Stride,
		"workers", e.cfg.Workers, "shards", e.cfg.Shards, "indexOnly", e.cfg.IndexOnly)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				e.setErr(ctx.Err())
				e.Stop()
			case <-e.done:
			}
		}()
	}

	// Config.Buffer is in events; the channel carries slabs.
	slabs := make(chan *[]trace.Request, (e.cfg.Buffer+slabSize-1)/slabSize)
	drained := make(chan struct{})
	jobs := make(chan windowJob)
	results := make(chan windowDone, e.cfg.Workers)
	// slots is the admission bound: the windower takes one to seal a
	// window, detect gives it back once the window's detection is done.
	slots := make(chan struct{}, e.cfg.Workers)

	go e.read(src, slabs, drained)

	var workerWG sync.WaitGroup
	workerWG.Add(e.cfg.Workers)
	for i := 0; i < e.cfg.Workers; i++ {
		go func() {
			defer workerWG.Done()
			e.detect(jobs, results, slots)
		}()
	}
	go func() {
		workerWG.Wait()
		close(results)
	}()

	go e.windower(slabs, drained, jobs, slots)
	go e.sequence(results)
	return e.out
}

// Stop asks the engine to stop ingesting and drain: every event already
// handed to the engine is windowed, then open windows are sealed and
// emitted as if the source had ended. Safe to call concurrently and more
// than once. A reader blocked inside Source.ReadBatch keeps the ingestion
// goroutine alive until that call returns, but draining does not wait for
// it.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.quit) })
}

// Err returns the first source, detection or context error, if any. Valid
// once the output channel has closed.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Stats returns a point-in-time snapshot of the ingestion counters. Safe
// to call at any time, including while the engine runs; final once the
// output channel has closed.
func (e *Engine) Stats() Stats {
	return Stats{
		Events:       int(e.ctrEvents.Load()),
		Late:         int(e.ctrLate.Load()),
		Windows:      int(e.ctrWindows.Load()),
		EmptyWindows: int(e.ctrEmpty.Load()),
	}
}

// Tracker exposes the cross-window lineage tracker (for end-of-run
// summaries). Valid once the output channel has closed.
func (e *Engine) Tracker() *tracker.Tracker { return e.cfg.Tracker }

func (e *Engine) setErr(err error) {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

// Reader states, for the Stop drain handshake.
const (
	readerRunning int32 = iota // between ReadBatch returning and the send landing
	readerParked               // blocked inside Source.ReadBatch — nothing in flight
	readerExited
)

// slabSize is the most events one slab carries from the reader to the
// windower, and so the most one shard sub-slab carries from the windower
// to a shard.
const slabSize = 256

// slabPool recycles reader slabs; shardSlabPool recycles shard sub-slabs.
var (
	slabPool = sync.Pool{New: func() any {
		s := make([]trace.Request, slabSize)
		return &s
	}}
	shardSlabPool = sync.Pool{New: func() any {
		s := make([]shardEvent, 0, slabSize)
		return &s
	}}
	// entryPool recycles run log buffers: the sealer gives a log's
	// entries back once they are encoded, and shards start logs on them.
	entryPool = sync.Pool{New: func() any { return new([]trace.Entry) }}
)

// read pumps the source into the bounded slab channel until EOF, error or
// Stop. drained closes once the windower has stopped taking slabs.
func (e *Engine) read(src Source, slabs chan<- *[]trace.Request, drained <-chan struct{}) {
	defer close(slabs)
	defer e.readerState.Store(readerExited)
	for {
		select {
		case <-e.quit:
			return
		default:
		}
		slab := slabPool.Get().(*[]trace.Request)
		e.readerState.Store(readerParked)
		n, err := src.ReadBatch((*slab)[:slabSize])
		e.readerState.Store(readerRunning)
		if n > 0 {
			*slab = (*slab)[:n]
			// No quit case: after Stop the windower keeps draining while
			// the reader runs, so a slab in hand is windowed, never dropped.
			select {
			case slabs <- slab:
			case <-drained:
				return
			}
		} else {
			slabPool.Put(slab)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				e.setErr(fmt.Errorf("stream: source: %w", err))
				e.o.log.Error("source read failed", "err", err)
			}
			return
		}
	}
}

// windowJob is one sealed window headed for detection.
type windowJob struct {
	seq        int
	start, end time.Time
	idx        *trace.Index
	payload    []byte // instead of idx on an IndexOnly engine
	requests   int
	// indexed counts the events first indexed since the previous seal (the
	// fragments this window's barrier handed over); over a run it sums to
	// Stats.Events, because every event is indexed exactly once.
	indexed int
	// Lifecycle timestamps for spans and latency histograms. firstEvent is
	// zero for windows that never saw an event or when tracing is off.
	firstEvent time.Time
	sealStart  time.Time
	sealedAt   time.Time
}

// windowDone is one detected window headed for the sequencer.
type windowDone struct {
	seq        int
	start, end time.Time
	requests   int
	report     *core.Report // nil for empty windows
	idx        *trace.Index // set when KeepIndex
	payload    []byte       // set when IndexOnly
	sealedAt   time.Time    // when the merged index was ready
}

// shardEvent is one event routed to a shard: the request, its server key
// and the fragment it belongs to.
type shardEvent struct {
	req  trace.Request
	key  string
	frag int64
}

// fragment is one shard's share of one time fragment: a trace.Index, or
// on an IndexOnly engine a trace.Log the sealer encodes to wire bytes.
type fragment interface {
	AddKeyed(r *trace.Request, key string, in *trace.Interner)
}

// newFragment returns an empty fragment in the current symbol epoch.
func (e *Engine) newFragment() fragment {
	if e.cfg.IndexOnly {
		entries := (*entryPool.Get().(*[]trace.Entry))[:0]
		return &trace.Log{Syms: e.symbols(), Fields: e.commit.pipe.Fields(), Entries: entries}
	}
	return trace.NewIndexOf(e.symbols(), e.commit.pipe.Fields())
}

// shardMsg is either a sub-slab of events to index (replyAll nil) or a
// seal barrier asking for every fragment with id <= sealMax. Channel FIFO
// ordering guarantees a barrier arrives after every event dispatched
// before it.
type shardMsg struct {
	events   *[]shardEvent
	sealMax  int64
	replyAll chan<- map[int64]fragment
}

// shardLoop owns one shard's index fragments, keyed by fragment id. All
// fragments of one symbol epoch share the engine Symbols; the shard
// interns through its own front cache, which starts over whenever it is
// handed a fragment of another epoch.
func (e *Engine) shardLoop(ch <-chan shardMsg) {
	frags := make(map[int64]fragment)
	var in trace.Interner
	for m := range ch {
		if m.replyAll != nil {
			// Hand over (and forget) every fragment the sealer may now
			// need. Ownership transfers: the shard never touches a
			// handed-over fragment again; a late event for the same
			// fragment simply starts a fresh one that the next barrier
			// delivers as a delta.
			out := make(map[int64]fragment, 4)
			for f, frag := range frags {
				if f <= m.sealMax {
					out[f] = frag
					delete(frags, f)
				}
			}
			m.replyAll <- out
			continue
		}
		events := *m.events
		for i := range events {
			ev := &events[i]
			frag := frags[ev.frag]
			if frag == nil {
				frag = e.newFragment()
				frags[ev.frag] = frag
			}
			frag.AddKeyed(&ev.req, ev.key, &in)
		}
		*m.events = events[:0]
		shardSlabPool.Put(m.events)
	}
}

// sealReq asks the sealer to assemble one window, in seal order. The
// replies channel delivers each shard's fragment handover for the barrier
// that accompanied this seal.
type sealReq struct {
	seq     int64 // absolute window seq
	job     windowJob
	replies <-chan map[int64]fragment
}

// sealer is the single goroutine that owns the fragment ring. For every
// sealed window it absorbs the newly handed-over shard fragments into the
// ring, then merges the ring in ascending fragment order: the first
// expiring fragment — one no later window needs — becomes the window
// index, zero-copy, the other expiring ones are absorbed and dropped, and
// the still-live ones are copied in and kept. It iterates the ring's
// present keys, never the window's fragment id range. It runs strictly in
// window order, pipelined behind the windower. An IndexOnly engine's ring
// holds wire encodings instead (sealBytes).
func (e *Engine) sealer(reqs <-chan sealReq, jobs chan<- windowJob, fragsPerStride int64, nShards int) {
	defer close(jobs)
	ring := make(map[int64]*trace.Index)
	encs, logs := make(map[int64][][]byte), make(map[epochFrag][]*trace.Log)
	var live []int64
	for r := range reqs {
		for i := 0; i < nShards; i++ {
			for f, frag := range <-r.replies {
				if l, ok := frag.(*trace.Log); ok {
					r.job.indexed += len(l.Entries)
					logs[epochFrag{f, l.Syms}] = append(logs[epochFrag{f, l.Syms}], l)
					continue
				}
				frag := frag.(*trace.Index)
				r.job.indexed += frag.RequestCount
				if cur := ring[f]; cur == nil {
					ring[f] = frag
				} else {
					cur.Absorb(frag)
				}
			}
		}
		// Every ring entry belongs to this window: earlier seals dropped
		// what expired, and a barrier hands over nothing past its window.
		if e.cfg.IndexOnly {
			r.job.payload = e.sealBytes(encs, logs, (r.seq+1)*fragsPerStride)
			r.job.requests = wire.IndexRequests(r.job.payload)
			e.o.finishSeal(&r.job)
			jobs <- r.job
			continue
		}
		live = live[:0]
		for f := range ring {
			live = append(live, f)
		}
		slices.Sort(live)
		var merged *trace.Index
		for _, f := range live {
			frag := ring[f]
			if f < (r.seq+1)*fragsPerStride {
				// Expiring: no later window reads it again.
				delete(ring, f)
				if merged == nil {
					merged = frag
				} else {
					merged.Absorb(frag)
				}
				continue
			}
			if merged == nil {
				merged = trace.NewIndexOf(e.symbols(), e.commit.pipe.Fields())
			}
			merged.Merge(frag)
		}
		if merged == nil {
			merged = trace.NewIndexOf(e.symbols(), e.commit.pipe.Fields())
		}
		r.job.idx, r.job.requests = merged, merged.RequestCount
		e.o.finishSeal(&r.job)
		jobs <- r.job
	}
}

// epochFrag keys the shard logs of one fragment and symbol epoch.
type epochFrag struct {
	frag int64
	syms *trace.Symbols
}

// sealBytes encodes each handed-over fragment's logs once per epoch into
// the ring encs, returns the window — the ring merged as bytes, which
// needs no shared symbols, or its one encoding — and drops fragments
// below expire.
func (e *Engine) sealBytes(encs map[int64][][]byte, logs map[epochFrag][]*trace.Log, expire int64) []byte {
	for k, ls := range logs {
		encs[k.frag] = append(encs[k.frag], wire.EncodeLogs(ls...))
		for _, l := range ls {
			entryPool.Put(&l.Entries)
		}
		delete(logs, k)
	}
	var parts [][]byte
	for f, fe := range encs {
		if parts = append(parts, fe...); f < expire {
			delete(encs, f)
		}
	}
	if len(parts) == 0 {
		return wire.EncodeIndex(trace.NewIndexOf(e.symbols(), e.commit.pipe.Fields()))
	} else if len(parts) == 1 {
		return parts[0]
	}
	b, err := wire.MergeIndexes(parts)
	if err != nil { // a count too wide for the wire
		e.setErr(fmt.Errorf("stream: %w", err))
	}
	return b
}

// windower assigns events to windows, advances the watermark, and seals
// windows in order. It owns all window bookkeeping; shards only aggregate.
// It closes drained once it takes no more slabs.
func (e *Engine) windower(slabs <-chan *[]trace.Request, drained chan<- struct{}, jobs chan<- windowJob, slots chan<- struct{}) {
	nShards := e.cfg.Shards
	fragWidth, fragsPerWindow, fragsPerStride := e.fragGeometry()
	shardCh := make([]chan shardMsg, nShards)
	var shardWG sync.WaitGroup
	for i := range shardCh {
		// Room for one sub-slab while the shard indexes the previous one:
		// a shard queue is bounded in events, not messages.
		shardCh[i] = make(chan shardMsg, 1)
		shardWG.Add(1)
		go func(ch <-chan shardMsg) {
			defer shardWG.Done()
			e.shardLoop(ch)
		}(shardCh[i])
	}
	// subs holds the sub-slab being filled for each shard, nil when empty.
	subs := make([]*[]shardEvent, nShards)
	flush := func() {
		for i, sub := range subs {
			if sub != nil {
				shardCh[i] <- shardMsg{events: sub}
				subs[i] = nil
			}
		}
	}

	var (
		originSet bool
		baseSet   bool
		origin    time.Time
		maxTime   time.Time
		base      int64 // seq of the first window; emitted as Seq 0
		nextSeal  int64 // next window seq to seal
		maxSeq    int64 // highest window seq holding any event
		sealCh    = make(chan sealReq, e.cfg.Workers)
		// firstSeen stamps each window's first accepted event (the start
		// of its "build" span and of the ingest->seal latency); nil when
		// neither tracing nor latency metrics are wired.
		firstSeen map[int64]time.Time
		// accepted and late count events since the counters were last
		// published: once per slab and before every seal.
		accepted, late int64
		// syms is the current symbol epoch; keys is the windower's own
		// front cache for server keys.
		syms = e.symbols()
		keys trace.Interner
	)
	if e.o.tr != nil || e.o.ingestSeal != nil {
		firstSeen = make(map[int64]time.Time)
	}
	go e.sealer(sealCh, jobs, fragsPerStride, nShards)

	publish := func() {
		e.ctrEvents.Add(accepted)
		e.ctrLate.Add(late)
		accepted, late = 0, 0
	}

	// afterSeal rotates the symbol-table epoch on schedule. Fragments and
	// ring entries from the old epoch merge through the name-remap path,
	// so rotation is invisible in output (TestSymbolRotationInvisible).
	sealed := 0
	afterSeal := func() {
		sealed++
		if e.cfg.RotateSymbolsEvery > 0 && sealed%e.cfg.RotateSymbolsEvery == 0 {
			syms = trace.NewSymbols()
			e.syms.Store(syms)
		}
	}

	seal := func(seq int64) {
		// Every event routed so far reaches its shard ahead of the barrier.
		flush()
		publish()
		slots <- struct{}{}
		start := e.cfg.Stride * time.Duration(seq)
		job := windowJob{
			seq:   int(seq - base),
			start: origin.Add(start),
			end:   origin.Add(start + e.cfg.Window),
		}
		if firstSeen != nil {
			job.firstEvent = firstSeen[seq]
			delete(firstSeen, seq)
		}
		e.o.beginSeal(&job)
		replies := make(chan map[int64]fragment, nShards)
		for _, ch := range shardCh {
			ch <- shardMsg{sealMax: seq*fragsPerStride + fragsPerWindow - 1, replyAll: replies}
		}
		sealCh <- sealReq{seq: seq, job: job, replies: replies}
	}

	// handle windows one event; now is when its slab arrived.
	handle := func(req *trace.Request, now time.Time) {
		t := req.Time
		if !originSet {
			if e.cfg.Origin.IsZero() {
				origin = t.Truncate(e.cfg.Stride)
			} else {
				origin = e.cfg.Origin
			}
			originSet = true
		}
		dt := t.Sub(origin)
		lo, hi := seqRange(dt, e.cfg.Window, e.cfg.Stride)
		if hi < 0 { // entirely before the window origin
			late++
			return
		}
		if lo < 0 {
			lo = 0
		}
		if !baseSet {
			base, nextSeal, maxSeq = lo, lo, lo
			baseSet = true
		}
		if hi < nextSeal { // every containing window already sealed
			late++
			return
		}
		if lo < nextSeal { // partially late: only still-open windows get it
			lo = nextSeal
		}
		if hi > maxSeq {
			maxSeq = hi
		}
		accepted++
		if firstSeen != nil {
			for s := lo; s <= hi; s++ {
				if _, ok := firstSeen[s]; !ok {
					firstSeen[s] = now
				}
			}
		}
		// One index per fragment, however many windows overlap it: windows
		// [lo, hi] pick the fragment up from the ring at seal time.
		key := keys.ServerKey(syms, req)
		i := shardOf(key, nShards)
		if subs[i] == nil {
			subs[i] = shardSlabPool.Get().(*[]shardEvent)
		}
		*subs[i] = append(*subs[i], shardEvent{req: *req, key: key, frag: floorDiv(int64(dt), int64(fragWidth))})

		if t.After(maxTime) {
			maxTime = t
		}
		watermark := maxTime.Add(-e.cfg.Watermark)
		for nextSeal <= maxSeq {
			end := origin.Add(e.cfg.Stride*time.Duration(nextSeal) + e.cfg.Window)
			if end.After(watermark) {
				break
			}
			seal(nextSeal)
			nextSeal++
			afterSeal()
		}
	}

	handleSlab := func(slab *[]trace.Request) {
		var now time.Time
		if firstSeen != nil {
			now = time.Now()
		}
		for i := range *slab {
			handle(&(*slab)[i], now)
		}
		slabPool.Put(slab)
		flush()
		publish()
		if !maxTime.IsZero() {
			e.maxEvent.Store(maxTime.UnixNano())
		}
	}

ingest:
	for {
		select {
		case slab, ok := <-slabs:
			if !ok {
				break ingest
			}
			handleSlab(slab)
		case <-e.quit:
			// Stop: consume everything the reader has committed to the
			// bounded channel. An empty channel is only quiescent once the
			// reader is parked in Source.ReadBatch or gone — while it is
			// running, a slab it holds may still be landing, so yield and
			// re-check rather than dropping it.
			for {
				select {
				case slab, ok := <-slabs:
					if !ok {
						break ingest
					}
					handleSlab(slab)
				default:
					if e.readerState.Load() != readerRunning {
						break ingest
					}
					runtime.Gosched()
				}
			}
		}
	}
	close(drained)

	// Source exhausted (or Stop): drain every open window in order.
	if baseSet {
		for ; nextSeal <= maxSeq; nextSeal++ {
			seal(nextSeal)
			afterSeal()
		}
	}
	for _, ch := range shardCh {
		close(ch)
	}
	shardWG.Wait()
	close(sealCh) // the sealer drains pending seals, then closes jobs
}

// seqRange returns the inclusive range of window sequence numbers whose
// half-open interval [seq*stride, seq*stride+window) contains offset dt
// from the origin. hi < 0 means the event precedes every window.
func seqRange(dt, window, stride time.Duration) (lo, hi int64) {
	hi = floorDiv(int64(dt), int64(stride))
	lo = floorDiv(int64(dt-window), int64(stride)) + 1
	return lo, hi
}

// floorDiv is integer division rounding towards negative infinity (b > 0).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// shardOf maps a server key to a shard with FNV-1a, so one server's
// requests always meet in the same fragment.
func shardOf(key string, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// detect runs the batch pipeline over sealed windows. Empty windows skip
// detection but still flow through so the sequencer can advance the
// tracker's window clock. The run context cancels in-flight detections;
// cancelled windows flow through report-less so the sequencer still
// closes the output promptly. Each window gives its admission slot back
// once its result is handed on — an IndexOnly window, which has nothing to
// detect, as soon as a worker takes it.
func (e *Engine) detect(jobs <-chan windowJob, results chan<- windowDone, slots <-chan struct{}) {
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	for j := range jobs {
		if e.cfg.IndexOnly {
			<-slots
		}
		d := windowDone{seq: j.seq, start: j.start, end: j.end, requests: j.requests, payload: j.payload, sealedAt: j.sealedAt}
		if e.cfg.KeepIndex {
			d.idx = j.idx
		}
		switch {
		case e.cfg.IndexOnly:
			// Forward-only node: the sealed index is the product.
		case ctx.Err() != nil:
			// Hard shutdown: don't pay ComputeStats for a detection that
			// would abort before its first stage — flow through report-less.
			e.setErr(ctx.Err())
		case j.idx.RequestCount > 0:
			report, err := e.commit.Detect(ctx, j.seq, j.idx)
			if err != nil {
				e.setErr(err)
			}
			d.report = report
		}
		results <- d
		if !e.cfg.IndexOnly {
			<-slots
		}
	}
}

// sequence restores window order over out-of-order detection completions,
// feeds each window through the tracker, and emits WindowResults. Running
// single-threaded here is what makes worker count invisible in the output.
func (e *Engine) sequence(results <-chan windowDone) {
	defer close(e.done)
	defer close(e.out)
	pending := make(map[int]windowDone)
	next := 0
	for d := range results {
		pending[d.seq] = d
		for {
			d, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			e.emit(d)
		}
	}
}

// emit commits one in-order window — tracker and deltas (detecting
// engines only), then every sink — and publishes the result.
func (e *Engine) emit(d windowDone) {
	res := WindowResult{Seq: d.seq, Start: d.start, End: d.end, Requests: d.requests, Report: d.report, Index: d.idx, Payload: d.payload}
	if d.requests == 0 {
		// Report-less windows WITH requests are aborted, not empty.
		e.ctrEmpty.Add(1)
	}
	if !e.cfg.IndexOnly {
		// A forward-only node ran no detection, so there is nothing to
		// track — its sinks (the cluster forwarder) get the index as-is.
		e.commit.Track(&res)
	}
	if err := e.commit.Sink(&res); err != nil {
		e.setErr(err)
	}
	if e.o.sealCommit != nil && !d.sealedAt.IsZero() {
		e.o.sealCommit.Observe(time.Since(d.sealedAt).Seconds())
	}
	e.ctrWindows.Add(1)
	e.o.log.Debug("window committed", "window", d.seq, "requests", d.requests)
	e.out <- res
}
