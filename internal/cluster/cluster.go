// Package cluster is SMASH's horizontal scale-out layer: N ingest nodes,
// each windowing one client-hash partition of the traffic, feed one
// aggregator that merges their window fragments and runs detection once
// per cluster-wide window.
//
//	partition 0 ─▶ smashd -role ingest ──┐ (wire fragments over HTTP)
//	partition 1 ─▶ smashd -role ingest ──┼▶ smashd -role aggregate
//	partition … ─▶ smashd -role ingest ──┘   └▶ detection → tracker → store
//
// The split leans on two earlier invariants: trace.Index aggregation
// commutes (any partition of the requests merges back to the exact index a
// sequential build would produce), and Merge's name-remap path makes
// fragments from foreign symbol tables safe to fold in. An ingest node is
// a stream.Engine in IndexOnly mode — full windowing, watermark and
// backpressure semantics, no detection — whose sink is a Forwarder that
// encodes each sealed fragment (internal/wire) and POSTs it to the
// aggregator with bounded retry. The aggregator aligns fragments from all
// nodes onto epoch-derived window ids, merges them in sorted node order,
// and drives the same core.Pipeline → tracker → sink path a standalone
// engine drives, so a partitioned run reproduces a single-node run's
// output byte-for-byte (TestClusterMatchesStandalone).
//
// # Merge tiers
//
// When one aggregator cannot absorb the fan-in, trees replace the star.
// The tier in between is no type of its own: AggregatorConfig.IndexOnly —
// the twin of stream.Config.IndexOnly — gives an Aggregator that aligns,
// dedupes and merges exactly like the root but skips detection and
// tracking and hands every window (empty ones too: the parent needs the
// tier's watermark) to its sinks, and a Forwarder in Sinks ships it
// upstream under the tier's node name. Index merging is associative and
// every tier merges in sorted node order, so any tree shape produces
// byte-identical output (TestMergeTierMatchesDirect). With FragDir both
// kinds survive kill -9, differently: a detecting aggregator commits its
// frontier before the sinks run and reconciles the one window a crash can
// interrupt against the sink's applied count (exactly-once into the
// store); an IndexOnly tier has no such count, commits after the sink,
// and re-forwards that one window — the parent's (node, window) dedupe
// absorbs it (TestMergerDuplicateForwardDedupes).
//
// # Window alignment
//
// Nodes never coordinate: every window is identified by its epoch-derived
// id, WindowID(start) = (start − origin) / stride, with origin fixed at
// the Unix epoch (Epoch) cluster-wide. Ingest engines run with
// Config.Origin = Epoch so each node derives identical window boundaries
// from timestamps alone.
//
// # Straggler policy
//
// Each node forwards its windows in order, so the aggregator keeps one
// watermark per node — the highest window id the node has forwarded — and
// seals window w once every expected node's watermark reaches w (a final
// marker lifts a node's watermark to infinity). Config.Straggler bounds
// how long a lagging shard can hold the cluster back: when the lead
// node's watermark runs Straggler windows ahead, w seals without the
// stragglers, and their fragments for w are counted and dropped on
// arrival — the fragment-level mirror of the stream engine's event
// lateness policy. Duplicate fragments (at-least-once delivery after a
// lost response) are detected per (node, window) and dropped, keeping
// application idempotent.
//
// # Hop provenance and tracing
//
// Every transit stamps a hop record (wire.Hop) onto the fragment: node,
// role, send/receive times, delivery attempts, spool dwell. Merge tiers
// carry their children's trails upstream (stream.WindowResult.Hops, which
// Forwarder.Consume copies onto the merged fragment), so the root aggregator
// stitches the full path into hop:<node> spans on its obs.Tracer,
// observes per-hop transit and end-to-end event-time-to-seal
// histograms, estimates per-child clock skew from the stamps, and
// reconstructs the tree below it (Topology, served as /v1/cluster)
// from hop records alone — no registration protocol. Receive stamps
// land before the fragment log append, so crash-recovery replays
// rebuild the same spans marked replay=true and are excluded from the
// end-to-end histogram rather than double-counted.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"smash/internal/obs"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/wire"
)

// Epoch is the cluster-wide window origin: window ids count strides since
// the Unix epoch, so every node maps a timestamp to the same window id
// with no coordination.
var Epoch = time.Unix(0, 0).UTC()

// PartitionOf maps a client id to one of n partitions with FNV-1a — the
// cluster's partitioning function, shared by tracegen -partitions and
// smashd -shard-of so pre-partitioned traces and self-partitioning nodes
// agree.
func PartitionOf(client string, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// ShardSource filters a source down to one client-hash partition: an
// ingest node pointed at the full trace ingests only its shard. Shard is
// 0-based; Of is the cluster's ingest node count.
type ShardSource struct {
	Src   stream.Source
	Shard int
	Of    int
}

// ReadBatch returns the next requests belonging to the shard.
func (s *ShardSource) ReadBatch(dst []trace.Request) (int, error) {
	return stream.ReadFiltered(s.Src, dst, func(r *trace.Request) bool {
		return PartitionOf(r.Client, s.Of) == s.Shard
	})
}

// WindowID returns the epoch-derived id of the window starting at start.
func WindowID(start time.Time, stride time.Duration) int64 {
	d := start.Sub(Epoch)
	id := int64(d / stride)
	if d%stride != 0 && d < 0 {
		id--
	}
	return id
}

// WindowStart is WindowID's inverse: the start time of window id.
func WindowStart(id int64, stride time.Duration) time.Time {
	return Epoch.Add(time.Duration(id) * stride)
}

// ForwarderConfig parameterizes a Forwarder.
type ForwarderConfig struct {
	// URL is the aggregator's base URL (e.g. "http://agg:8080"); the
	// forwarder POSTs to URL + "/v1/ingest".
	URL string
	// Node names this ingest node in fragments (required; the aggregator
	// keys watermarks and /v1/cluster rows by it).
	Node string
	// Role labels this node's hop records ("ingest", "merge"); default
	// "ingest". The receiver folds it into topology and trace views.
	Role string
	// Stride is the cluster window stride — must match the aggregator's
	// and the ingest engine's (required, > 0).
	Stride time.Duration
	// MaxAttempts bounds delivery attempts per fragment (default 5).
	MaxAttempts int
	// Backoff caps the first retry delay; the cap doubles per attempt and
	// each actual delay is drawn uniformly from [0, cap) — full jitter, so
	// a fleet of nodes retrying against a recovering aggregator spreads
	// its load instead of thundering in lockstep (default 100ms).
	Backoff time.Duration
	// SpoolDir, when set, makes the forwarder durable: fragments whose
	// delivery attempts exhaust are written to this directory (fsynced)
	// and drained in order once the aggregator answers again, instead of
	// being dropped with an error. Spooled fragments survive restarts.
	// The spool holds at most 256 MiB; past that the oldest entries are
	// dropped and counted.
	SpoolDir string
	// Metrics registers the forward POST latency histogram (nil disables
	// metrics); the counters are Stats', served on /v1/cluster.
	Metrics *obs.Registry
	// Logger receives structured retry and failure logs (nil discards).
	Logger *slog.Logger
}

// ForwarderStats is a live snapshot of a forwarder's counters.
type ForwarderStats struct {
	// Forwarded counts fragments acknowledged by the aggregator
	// (including the final marker).
	Forwarded int `json:"forwarded"`
	// Retries counts failed attempts that were retried.
	Retries int `json:"retries"`
	// Bytes counts encoded fragment bytes acknowledged.
	Bytes int64 `json:"bytes"`
	// LastWindow is the highest window id handed to the forwarder so far
	// (delivered or spooled).
	LastWindow int64 `json:"lastWindow"`
	// Spooled counts fragments written to the on-disk spool after their
	// delivery attempts exhausted; SpoolDropped counts entries evicted to
	// respect the spool bound (or unreadable at drain).
	Spooled      int `json:"spooled"`
	SpoolDropped int `json:"spoolDropped"`
	// SpoolPending and SpoolBytes describe what is on disk right now.
	SpoolPending int   `json:"spoolPending"`
	SpoolBytes   int64 `json:"spoolBytes"`
}

// Forwarder is a forwarding node's stream.Sink — behind an IndexOnly
// engine on an ingest node, behind an IndexOnly Aggregator on a merge
// tier: it encodes every emitted window's index as a wire fragment and
// delivers it to the parent with bounded retry and exponential backoff.
// Because sinks run on the emit path, a slow or unreachable parent
// backpressures ingestion instead of buffering fragments without bound.
type Forwarder struct {
	cfg    ForwarderConfig
	client *http.Client
	log    *slog.Logger
	mPost  *obs.Histogram
	sp     *spool // nil without SpoolDir

	ctrForwarded, ctrRetries atomic.Int64
	ctrBytes, lastWindow     atomic.Int64
}

// NewForwarder validates the config and builds a forwarder.
func NewForwarder(cfg ForwarderConfig) (*Forwarder, error) {
	if cfg.URL == "" {
		return nil, errors.New("cluster: ForwarderConfig.URL is required")
	}
	if u, err := url.Parse(cfg.URL); err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: bad forward URL %q", cfg.URL)
	}
	if cfg.Node == "" {
		return nil, errors.New("cluster: ForwarderConfig.Node is required")
	}
	if cfg.Stride <= 0 {
		return nil, errors.New("cluster: ForwarderConfig.Stride must be > 0")
	}
	if cfg.Role == "" {
		cfg.Role = "ingest"
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	f := &Forwarder{cfg: cfg, client: &http.Client{Timeout: 30 * time.Second}, log: cfg.Logger}
	if f.log == nil {
		f.log = obs.Discard()
	}
	if cfg.SpoolDir != "" {
		sp, err := openSpool(cfg.SpoolDir, spoolMaxBytes, f.log)
		if err != nil {
			return nil, err
		}
		f.sp = sp
		if n := sp.pending(); n > 0 {
			f.log.Info("spool holds undelivered fragments from a previous run",
				"pending", n, "bytes", sp.pendingBytes())
		}
	}
	if reg := cfg.Metrics; reg != nil {
		f.mPost = reg.Histogram("smash_forward_post_seconds",
			"Wall-clock delivering one fragment to the aggregator, retries included.")
	}
	f.lastWindow.Store(-1 << 62)
	return f, nil
}

// SinkName implements stream.NamedSink: fragment deliveries show up as
// the "forward" span and sink-latency series on the ingest engine.
func (f *Forwarder) SinkName() string { return "forward" }

// Consume implements stream.Sink: it ships the window's index to the
// aggregator. The engine must run with Config.IndexOnly (or KeepIndex);
// behind an IndexOnly Aggregator — a merge tier — the children's hop
// trails ride w.Hops onto the fragment, so the root sees the whole path.
// The encoded bytes stay hop-free for this transit; each delivery attempt
// appends its own freshly-stamped hop record via hopBody, and spooled
// fragments get theirs at drain time so dwell and attempt counts are
// accurate.
//
// With a spool configured, delivery failure is absorbed instead of
// surfaced: a fragment whose attempts exhaust is written to disk and the
// engine keeps streaming; a fragment arriving while a backlog exists
// queues behind it (the aggregator needs each node's windows in order),
// after which Consume opportunistically drains. Only a 4xx rejection —
// which resending cannot heal — still errors.
func (f *Forwarder) Consume(w *stream.WindowResult) error {
	if w.Index == nil {
		return fmt.Errorf("cluster: window %d has no index; run the engine with Config.IndexOnly", w.Seq)
	}
	id := WindowID(w.Start, f.cfg.Stride)
	body := wire.EncodeFragment(&wire.Fragment{
		Node:   f.cfg.Node,
		Window: id,
		Start:  w.Start,
		End:    w.End,
		Index:  w.Index,
		Hops:   w.Hops,
	})
	if f.sp != nil && f.sp.pending() > 0 {
		if err := f.sp.put(body); err != nil {
			return err
		}
		f.lastWindow.Store(id)
		f.drain()
		return nil
	}
	if err := f.post(body, 0); err != nil {
		var rej *rejectError
		if f.sp == nil || errors.As(err, &rej) {
			return err
		}
		if perr := f.sp.put(body); perr != nil {
			return perr
		}
		f.log.Warn("fragment spooled after delivery attempts exhausted",
			"node", f.cfg.Node, "window", id, "err", err)
	}
	f.lastWindow.Store(id)
	return nil
}

// hopBody returns body with this node's hop record appended: Send stamped
// now, the attempt count, and how long the fragment sat in the spool.
// AppendHop is a pure byte append, so the base encoding is paid once per
// fragment, not per attempt.
func (f *Forwarder) hopBody(body []byte, attempt int, dwell time.Duration) []byte {
	return wire.AppendHop(body, wire.Hop{
		Node:       f.cfg.Node,
		Role:       f.cfg.Role,
		Send:       time.Now().UTC(),
		Attempts:   attempt,
		SpoolDwell: dwell,
	})
}

// drain delivers spooled fragments oldest-first with single attempts,
// stopping at the first transient failure — the aggregator is still (or
// again) unreachable, and the next Consume or CloseContext will try again. A 4xx
// rejection drops the entry: resending cannot heal it.
func (f *Forwarder) drain() {
	for f.sp.pending() > 0 {
		seq, body, dwell, ok := f.sp.peek()
		if !ok {
			continue // unreadable entry was dropped; move on
		}
		err := f.postOnce(f.hopBody(body, 1, dwell))
		var rej *rejectError
		switch {
		case err == nil:
			f.sp.remove(seq)
		case errors.As(err, &rej):
			f.log.Error("aggregator rejected spooled fragment; dropped", "seq", seq, "err", err)
			f.sp.remove(seq)
		default:
			return
		}
	}
}

// CloseContext delivers the node's end-of-stream marker, telling the
// parent no further windows will arrive from this node; call it after
// the engine's (or merge tier's) output channel has closed. It keeps
// draining the spool and re-posting the marker — capped, jittered backoff
// between rounds — until everything is delivered or ctx is cancelled, so
// an aggregator outage at end-of-stream costs waiting, not the final
// marker; give ctx a deadline to bound the wait. A 4xx rejection returns
// immediately; on cancellation the give-up is logged loudly, because the
// aggregator will now hold this node's watermark open until its
// straggler policy forces the issue.
func (f *Forwarder) CloseContext(ctx context.Context) error {
	final := wire.EncodeFragment(&wire.Fragment{Node: f.cfg.Node, Window: f.lastWindow.Load(), Final: true})
	for attempt := 1; ; attempt++ {
		if f.sp != nil {
			f.drain()
		}
		var err error
		if n := f.spoolPending(); n > 0 {
			err = fmt.Errorf("cluster: %d spooled fragments undelivered", n)
		} else if err = f.postOnce(f.hopBody(final, attempt, 0)); err == nil {
			return nil
		} else {
			var rej *rejectError
			if errors.As(err, &rej) {
				return err
			}
		}
		delay := f.backoffFor(attempt)
		f.ctrRetries.Add(1)
		f.log.Warn("shutdown delivery incomplete; retrying",
			"node", f.cfg.Node, "attempt", attempt, "backoff", delay, "err", err)
		select {
		case <-ctx.Done():
			f.log.Error("final marker abandoned at shutdown; aggregator will wait on this node's watermark",
				"node", f.cfg.Node, "spoolPending", f.spoolPending(), "err", err)
			return fmt.Errorf("cluster: final marker abandoned: %w", err)
		case <-time.After(delay):
		}
	}
}

func (f *Forwarder) spoolPending() int {
	if f.sp == nil {
		return 0
	}
	return f.sp.pending()
}

// Stats returns a live snapshot of the forwarder's counters.
func (f *Forwarder) Stats() ForwarderStats {
	st := ForwarderStats{
		Forwarded:  int(f.ctrForwarded.Load()),
		Retries:    int(f.ctrRetries.Load()),
		Bytes:      f.ctrBytes.Load(),
		LastWindow: f.lastWindow.Load(),
	}
	if f.sp != nil {
		spooled, dropped := f.sp.counters()
		st.Spooled = int(spooled)
		st.SpoolDropped = int(dropped)
		st.SpoolPending = f.sp.pending()
		st.SpoolBytes = f.sp.pendingBytes()
	}
	return st
}

// ContentType labels wire-encoded fragment bodies.
const ContentType = "application/x-smash-fragment"

// rejectError marks a 4xx response: the aggregator understood the request
// and said no, so retrying or spooling the fragment is pointless.
type rejectError struct{ status string }

func (e *rejectError) Error() string {
	return fmt.Sprintf("cluster: aggregator rejected fragment: %s", e.status)
}

// maxBackoff caps the retry-delay window however many attempts have
// failed.
const maxBackoff = 10 * time.Second

// backoffFor returns the delay before the retry following failed attempt
// number attempt (1-based): full jitter, drawn uniformly from [0, cap)
// where cap starts at cfg.Backoff and doubles per attempt up to
// maxBackoff. Randomizing the whole window (rather than adding a little
// noise to a deterministic delay) keeps a fleet of nodes hammering a
// recovering aggregator from synchronizing into retry waves.
func (f *Forwarder) backoffFor(attempt int) time.Duration {
	max := f.cfg.Backoff
	for i := 1; i < attempt && max < maxBackoff; i++ {
		max *= 2
	}
	if max > maxBackoff {
		max = maxBackoff
	}
	return time.Duration(rand.Int64N(int64(max)))
}

// postOnce makes a single delivery attempt. It returns nil on success, a
// *rejectError on 4xx, and the transport or status error otherwise.
func (f *Forwarder) postOnce(body []byte) error {
	resp, err := f.client.Post(f.cfg.URL+"/v1/ingest", ContentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode < 300:
		f.ctrForwarded.Add(1)
		f.ctrBytes.Add(int64(len(body)))
		return nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return &rejectError{status: resp.Status}
	default:
		return fmt.Errorf("aggregator: %s", resp.Status)
	}
}

// post delivers one encoded fragment, retrying transient failures
// (network errors and 5xx) with full-jitter doubling backoff. 4xx
// responses fail immediately: a rejected fragment will not heal by
// resending. Each attempt ships its own hop record — fresh Send stamp and
// attempt count — so the receiver sees the true last-transit timing, not
// the first try's.
func (f *Forwarder) post(body []byte, dwell time.Duration) error {
	t0 := time.Now()
	defer f.mPost.ObserveSince(t0)
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := f.postOnce(f.hopBody(body, attempt, dwell))
		if err == nil {
			return nil
		}
		var rej *rejectError
		if errors.As(err, &rej) {
			return err
		}
		lastErr = err
		if attempt >= f.cfg.MaxAttempts {
			f.log.Error("fragment delivery abandoned",
				"node", f.cfg.Node, "attempts", attempt, "err", lastErr)
			return fmt.Errorf("cluster: forward failed after %d attempts: %w", attempt, lastErr)
		}
		delay := f.backoffFor(attempt)
		f.ctrRetries.Add(1)
		f.log.Warn("fragment delivery failed; retrying",
			"node", f.cfg.Node, "attempt", attempt, "backoff", delay, "err", lastErr)
		time.Sleep(delay)
	}
}
