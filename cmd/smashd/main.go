// Command smashd is the streaming SMASH daemon: it ingests HTTP request
// events from TSV trace files (or stdin), rotates tumbling/sliding time
// windows, runs the detection pipeline on each sealed window, and reports
// campaign lineage deltas — appear, persist, rotate — as they happen.
//
// Usage:
//
//	smashd [-role standalone|ingest|merge|aggregate]
//	       [-window 24h] [-stride 0] [-watermark 0] [-workers 1]
//	       [-shards 4] [-speedup 0] [-seed 1] [-idf 200]
//	       [-threshold 0.8] [-single-threshold 1.0] [-json] [-v]
//	       [-format tsv|common|combined|jsonl] [-follow] [-push]
//	       [-source-host HOST] [-jsonl-map field=key,...]
//	       [-state-dir DIR] [-listen ADDR] [-retire-after N]
//	       [-snapshot-every 64] [-wal-sync=true]
//	       [-retain-windows N] [-retain-age DUR]
//	       [-log-format text|json] [-log-level info] [-trace-log FILE]
//	       [-trace-log-max-bytes N] [-trace-log-keep N] [-version]
//	       [-pprof] [-cpuprofile FILE] [-memprofile FILE]
//	       [-forward URL] [-node NAME] [-shard-of N/M]
//	       [-cluster-listen ADDR] [-expect M] [-straggler N]
//	       [trace.tsv ...]
//
// With no file arguments (or "-"), events are read from stdin, so a live
// feed can be piped straight in. Files are replayed in argument order as
// one continuous stream. -stride 0 means tumbling windows (stride =
// window); a smaller stride yields overlapping sliding windows. -speedup N
// paces replay at N× recorded time (0 replays as fast as possible).
// -watermark bounds how out-of-order events may arrive before being
// dropped.
//
// # Sources
//
// -format picks the input line grammar (internal/source): the native
// tsv trace format, Apache/Nginx common or combined access logs
// (-source-host names the server for lines without a vhost token), or
// jsonl — one JSON object per line, with -jsonl-map renaming fields
// (e.g. -jsonl-map time=timestamp,client=ip). Malformed lines are
// counted (smash_source_parse_errors_total) and skipped, never fatal.
//
// -follow tails a single live log file the way tail -F does: growth is
// picked up as it is written, rotation (rename/recreate) and truncation
// are followed, and with -state-dir the read offset is checkpointed
// after every persisted window, so a restarted — even kill -9'd —
// daemon resumes without losing or duplicating events.
//
// -push (with -listen) accepts batched raw events POSTed to /v1/ingest
// (Content-Type picks the format: application/x-ndjson,
// text/tab-separated-values, text/x-common-log, text/x-combined-log);
// ?eos=1 on a final POST ends the stream. Pushes block while the engine
// is behind — backpressure reaches the client as a stalled POST. With
// file arguments the files replay first, then the push queue drains.
//
// -state-dir makes campaign lineages durable: every window is appended to
// a write-ahead log and snapshotted periodically (internal/store), and a
// restarted smashd pointed at the same directory resumes its lineages
// exactly where the previous process — even one killed with SIGKILL —
// left off. -retire-after N retires lineages idle for more than N windows
// (excluded from matching, member history pruned, scalar summary kept for
// reporting), bounding tracker memory on endless streams. Retired
// lineages emit a "retire" delta in the window they idle out.
//
// The store also keeps a per-window history log (DIR/history/) backing
// the analytics endpoints: time-range window queries, lineage timelines
// and SSE delta replay all survive restarts. -retain-windows N caps it
// at the newest N windows; -retain-age D drops windows more than D of
// event time behind the newest — so months-long runs stay bounded on
// disk. Both default to 0 (keep everything).
//
// -listen ADDR exposes the HTTP query/ops API (internal/serve) while the
// daemon runs: /v1/lineages (paginated via ?limit&offset, filtered via
// ?server&kind&minServers&minClients&activeFrom&activeTo),
// /v1/lineages/{id}, /v1/lineages/{id}/timeline, /v1/windows (ranged via
// ?from&to — window seqs or RFC 3339 times), /v1/windows/latest,
// /v1/windows/{seq}/trace, /v1/deltas (Server-Sent Events with
// Last-Event-ID resume), /v1/stats, /healthz and Prometheus /metrics
// (latency histograms, watermark lag, Go runtime stats). -pprof additionally mounts
// net/http/pprof under /debug/pprof/ on the same mux. The server shuts
// down gracefully after the stream drains.
//
// # Observability
//
// Every role keeps an obs.Registry of latency histograms (ingest->seal,
// seal->commit, detection and its stages, sink consumes, forward POSTs,
// aggregator fragment waits), a watermark-lag gauge and an obs.Tracer
// ring of recent window lifecycle traces; -listen / -cluster-listen
// expose them at /metrics and /v1/windows/{seq}/trace. -trace-log FILE
// additionally appends every span as one NDJSON line; the file rotates
// past -trace-log-max-bytes (default 64 MiB, 0 disables), keeping
// -trace-log-keep rotated segments (FILE.1 oldest-last), with the active
// segment's size exported as smash_trace_log_bytes. -version prints the
// build version (set via -ldflags "-X main.version=...") and the Go
// toolchain, also exported as the constant smash_build_info gauge with
// version, goversion and role labels.
//
// In cluster roles every fragment carries an append-only hop trail —
// which node sent it, in which role, when it was sent and accepted, after
// how many attempts and how long in the spool — so the aggregator's
// window traces include one span per hop and GET /v1/cluster on any node
// returns its subtree: each known child's role, watermark, lag, estimated
// clock skew (smash_cluster_node_clock_skew_seconds) and last spool
// dwell, recursively through merge tiers. Diagnostics log
// through log/slog: -log-format picks text or json, -log-level one of
// debug, info, warn, error.
//
// # Cluster roles
//
// A single process caps ingestion at one machine; -role splits the
// pipeline across processes (internal/cluster):
//
//   - -role ingest windows its share of the traffic without running
//     detection and forwards each sealed window fragment (wire-encoded,
//     with its symbol dictionary) to -forward URL, retrying transient
//     failures with full-jitter backoff. -shard-of N/M keeps only clients
//     hashing to partition N of M, so every node can read the same full
//     feed; pre-partitioned inputs (tracegen -partitions) skip the
//     filter. -node names the node; it defaults to "shardN" under
//     -shard-of. With -state-dir the forwarder gains a durable on-disk
//     spool: fragments that exhaust their retries during an aggregator
//     outage spill to DIR/spool and drain in order — oldest first — when
//     the aggregator answers again, surviving node restarts too.
//   - -role merge is an intermediate fan-in tier: it listens on
//     -cluster-listen for fragments from -expect children (ingest nodes
//     or other merge tiers), combines each window's fragments into one —
//     no detection, no tracking — and forwards the merged fragment to
//     -forward URL under its own -node name, with the same watermark,
//     straggler and end-of-stream semantics per tier. Merging is
//     associative, so any tree shape produces byte-identical output.
//   - -role aggregate listens on -cluster-listen for fragments from
//     -expect ingest nodes, aligns them on epoch-derived window ids,
//     merges each window and runs detection, tracking and persistence
//     exactly like a standalone run — byte-identical output for the same
//     traffic. -straggler N force-seals windows once the lead node runs N
//     windows ahead; late fragments are counted and dropped. The HTTP API
//     (including POST /v1/ingest and cluster metrics) serves on
//     -cluster-listen; the process exits once every expected node has
//     sent its end-of-stream marker.
//
// Window boundaries in cluster roles are anchored at the Unix epoch, not
// at the first event, so all nodes agree on window ids without
// coordination.
//
// With -state-dir, aggregate and merge roles are crash-recoverable: every
// accepted fragment is appended to a fragment log (DIR/fragments) before
// it is acknowledged, and a restarted process — even one killed with
// SIGKILL mid-stream — replays the log, reconciles the one window a
// crash can interrupt against the store, and resumes with continuous
// window numbering and byte-identical output. /v1/stats shows the
// membership view: per-node fragment counts, watermark, last-seen time,
// and whether a node is overdue for its final marker.
//
// Text mode prints one line per window plus its deltas; -json emits one
// JSON object per window (NDJSON) for downstream tooling. The first
// SIGINT/SIGTERM drains cleanly: in-flight windows are sealed, detected,
// reported and persisted before exit. A second signal cancels the run
// context, aborting in-flight detections at their next pipeline stage
// boundary. -v additionally logs per-stage detection timings to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"smash/internal/core"
	"smash/internal/obs"
	"smash/internal/profiling"
	"smash/internal/serve"
	"smash/internal/source"
	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/tracker"
)

// version identifies this build in `smashd -version` and the
// smash_build_info metric. "dev" for plain `go build`; release builds
// override it with -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smashd:", err)
		os.Exit(1)
	}
}

// onListen, when set (tests), receives the HTTP listener's bound address —
// the way a test using -listen 127.0.0.1:0 learns the chosen port.
var onListen func(net.Addr)

// onSource, when set (tests), observes the options after openSource has
// assembled the input — the way a test reaches the live tailer and
// source counters of an in-process -follow run.
var onSource func(*options)

// options carries every parsed flag plus the positional trace paths.
type options struct {
	window       time.Duration
	stride       time.Duration
	watermark    time.Duration
	workers      int
	shards       int
	speedup      float64
	seed         int64
	idf          int
	threshold    float64
	singleThresh float64
	jsonOut      bool
	verbose      bool
	format       string
	follow       bool
	push         bool
	sourceHost   string
	jsonlMap     string
	stateDir     string
	listen       string
	retireAfter  int
	snapEvery    int
	walSync      bool
	retainWin    int
	retainAge    time.Duration
	logFormat    string
	logLevel     string
	traceLog     string
	traceLogMax  int64
	traceLogKeep int
	pprofOn      bool

	role          string
	forward       string
	node          string
	shardOf       string
	clusterListen string
	expect        int
	straggler     int

	paths []string

	// Shared observability plane, built once per process in run().
	logger *slog.Logger
	reg    *obs.Registry
	tracer *obs.Tracer

	// Live source state, populated by openSource: per-source counters
	// (rendered as smash_source_* metrics), the tailer behind -follow and
	// the queue behind -push.
	srcCtrs   []*source.Counters
	tailer    *source.Tailer
	pushQueue *source.PushQueue
}

// windowRecord is the NDJSON shape of one window. Aborted marks a
// non-empty window whose detection did not complete (context cancelled or
// detection error), so downstream tooling can tell it apart from a
// genuinely analyzed zero-campaign window.
type windowRecord struct {
	Window    int            `json:"window"`
	Start     time.Time      `json:"start"`
	End       time.Time      `json:"end"`
	Requests  int            `json:"requests"`
	Campaigns int            `json:"campaigns"`
	Aborted   bool           `json:"aborted,omitempty"`
	Deltas    []stream.Delta `json:"deltas,omitempty"`
}

func run(ctx context.Context, args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("smashd", flag.ContinueOnError)
	var (
		o           options
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
		showVersion = fs.Bool("version", false, "print the build version and exit")
	)
	fs.DurationVar(&o.window, "window", 24*time.Hour, "detection window size")
	fs.DurationVar(&o.stride, "stride", 0, "window stride; 0 means tumbling (stride = window)")
	fs.DurationVar(&o.watermark, "watermark", 0, "allowed event lateness before drop")
	fs.IntVar(&o.workers, "workers", 1, "detection worker pool size")
	fs.IntVar(&o.shards, "shards", 4, "concurrent index builder shards")
	fs.Float64Var(&o.speedup, "speedup", 0, "replay pacing: N× recorded time; 0 = as fast as possible")
	fs.Int64Var(&o.seed, "seed", 1, "community detection seed")
	fs.IntVar(&o.idf, "idf", 200, "IDF popularity filter threshold")
	fs.Float64Var(&o.threshold, "threshold", 0.8, "inference threshold for multi-client campaigns")
	fs.Float64Var(&o.singleThresh, "single-threshold", 1.0, "inference threshold for single-client campaigns")
	fs.BoolVar(&o.jsonOut, "json", false, "emit one JSON object per window (NDJSON)")
	fs.BoolVar(&o.verbose, "v", false, "print every delta's new servers")
	fs.StringVar(&o.format, "format", "tsv", "input line format: tsv, common, combined or jsonl")
	fs.BoolVar(&o.follow, "follow", false, "tail the single input file across rotation (tail -F); with -state-dir, resume from a byte-offset checkpoint")
	fs.BoolVar(&o.push, "push", false, "accept raw events POSTed to /v1/ingest on the API listener")
	fs.StringVar(&o.sourceHost, "source-host", "", "server hostname assumed for access-log lines without a vhost token")
	fs.StringVar(&o.jsonlMap, "jsonl-map", "", "jsonl field mapping overrides, comma-separated field=key pairs (e.g. time=timestamp,client=ip)")
	fs.StringVar(&o.stateDir, "state-dir", "", "durable campaign-state directory (snapshot + WAL); empty disables persistence")
	fs.StringVar(&o.listen, "listen", "", "HTTP query/ops API address (e.g. :8080); empty disables serving")
	fs.IntVar(&o.retireAfter, "retire-after", 0, "retire lineages idle for more than N windows (0 = never)")
	fs.IntVar(&o.snapEvery, "snapshot-every", 64, "windows between state snapshots / WAL compactions")
	fs.BoolVar(&o.walSync, "wal-sync", true, "fsync the WAL after every window (survives machine death, not just process death)")
	fs.IntVar(&o.retainWin, "retain-windows", 0, "cap the queryable window history log at N windows (0 = keep all)")
	fs.DurationVar(&o.retainAge, "retain-age", 0, "drop history windows more than this behind the newest window, in event time (0 = keep all)")
	fs.StringVar(&o.role, "role", "standalone", "process role: standalone, ingest (window + forward fragments), merge (fan in child fragments) or aggregate (merge fragments + detect)")
	fs.StringVar(&o.forward, "forward", "", "ingest/merge roles: parent aggregator base URL (e.g. http://agg:8080)")
	fs.StringVar(&o.node, "node", "", "ingest/merge roles: node name in forwarded fragments (default shardN under -shard-of)")
	fs.StringVar(&o.shardOf, "shard-of", "", "ingest role: keep only clients hashing to partition N of M, as N/M (e.g. 0/2)")
	fs.StringVar(&o.clusterListen, "cluster-listen", "", "aggregate/merge roles: address serving /v1/ingest and the ops API")
	fs.IntVar(&o.expect, "expect", 0, "aggregate/merge roles: number of child nodes feeding this tier")
	fs.IntVar(&o.straggler, "straggler", 0, "aggregate/merge roles: force-seal windows N behind the lead node (0 = wait for all nodes)")
	fs.StringVar(&o.logFormat, "log-format", "text", "diagnostic log format: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info", "diagnostic log level: debug, info, warn or error")
	fs.StringVar(&o.traceLog, "trace-log", "", "append window-lifecycle spans to this file as NDJSON")
	fs.Int64Var(&o.traceLogMax, "trace-log-max-bytes", 64<<20, "rotate the -trace-log file past this size (0 = never rotate)")
	fs.IntVar(&o.traceLogKeep, "trace-log-keep", 3, "rotated -trace-log segments to keep (FILE.1 .. FILE.N; older are dropped)")
	fs.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the API listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintf(out, "smashd %s %s\n", version, runtime.Version())
		return nil
	}
	o.paths = fs.Args()
	logger, err := obs.NewLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	o.logger = logger
	o.reg = obs.NewRegistry()
	o.reg.GaugeFunc("smash_build_info",
		"Build identity: constant 1 carrying the version, Go toolchain and process role as labels.",
		func(emit obs.Emit) { emit(1, "version", version, "goversion", runtime.Version(), "role", o.role) })
	o.tracer = obs.NewTracer(0)
	if o.traceLog != "" {
		w, err := obs.NewRotatingWriter(o.traceLog, o.traceLogMax, o.traceLogKeep)
		if err != nil {
			return err
		}
		defer w.Close()
		o.tracer.LogTo(w)
		o.reg.GaugeFunc("smash_trace_log_bytes",
			"Active -trace-log segment size in bytes (drops back to zero at each rotation).",
			func(emit obs.Emit) { emit(float64(w.Size())) })
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	switch o.role {
	case "standalone":
		return runStandalone(ctx, &o, stdin, out)
	case "ingest":
		return runIngest(ctx, &o, stdin, out)
	case "aggregate":
		return runAggregate(ctx, &o, out)
	case "merge":
		return runMerge(ctx, &o, out)
	default:
		return fmt.Errorf("unknown -role %q (want standalone, ingest, merge or aggregate)", o.role)
	}
}

// parseJSONLMap parses -jsonl-map's "field=key,field=key" syntax.
func parseJSONLMap(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	m := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		field, key, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || field == "" || key == "" {
			return nil, fmt.Errorf("-jsonl-map entries must be field=key, got %q", pair)
		}
		m[field] = key
	}
	return m, nil
}

// sourceOptions builds the format options shared by the file source and
// the push intake.
func (o *options) sourceOptions() (source.Options, error) {
	jm, err := parseJSONLMap(o.jsonlMap)
	if err != nil {
		return source.Options{}, err
	}
	return source.Options{Host: o.sourceHost, JSONLMap: jm}, nil
}

// sourceStats snapshots every live source's counters — the Sources hook
// for internal/serve.
func (o *options) sourceStats() []source.Stats {
	out := make([]source.Stats, 0, len(o.srcCtrs))
	for _, c := range o.srcCtrs {
		out = append(out, c.Stats())
	}
	return out
}

// drain composes the graceful-shutdown action: close the live sources
// first (the tailer finishes the file, the push queue drains and EOFs)
// so the engine sees a natural end-of-stream, then Stop seals whatever
// is still open.
func (o *options) drain(engStop func()) func() {
	return func() {
		if o.tailer != nil {
			o.tailer.Stop()
		}
		if o.pushQueue != nil {
			o.pushQueue.Close()
		}
		engStop()
	}
}

// openSource assembles the input source: replayed files or stdin in the
// configured -format, a rotation-following tailer under -follow, and
// the HTTP push queue under -push (replayed after any files), returning
// the closers to run at exit.
func openSource(o *options, stdin io.Reader) (stream.Source, []io.Closer, error) {
	opts, err := o.sourceOptions()
	if err != nil {
		return nil, nil, err
	}
	f, err := source.New(o.format, opts)
	if err != nil {
		return nil, nil, err
	}

	var sources []stream.Source
	var closers []io.Closer
	switch {
	case o.follow:
		if len(o.paths) != 1 || o.paths[0] == "-" {
			return nil, nil, fmt.Errorf("-follow needs exactly one file argument (a path, not stdin)")
		}
		ck := ""
		if o.stateDir != "" {
			ck = filepath.Join(o.stateDir, "source.ckpt")
		}
		ctrs := source.NewCounters(o.paths[0], o.format)
		t, err := source.NewTailer(source.TailerConfig{
			Path:       o.paths[0],
			Format:     f,
			Counters:   ctrs,
			Checkpoint: ck,
		})
		if err != nil {
			return nil, nil, err
		}
		o.tailer = t
		o.srcCtrs = append(o.srcCtrs, ctrs)
		sources = append(sources, t)
	default:
		paths := o.paths
		if len(paths) == 0 && !o.push {
			paths = []string{"-"}
		}
		for _, p := range paths {
			var rd io.Reader
			name := p
			if p == "-" {
				rd, name = stdin, "stdin"
			} else {
				file, err := os.Open(p)
				if err != nil {
					for _, c := range closers {
						c.Close()
					}
					return nil, nil, err
				}
				closers = append(closers, file)
				rd = file
			}
			ctrs := source.NewCounters(name, o.format)
			o.srcCtrs = append(o.srcCtrs, ctrs)
			sources = append(sources, source.NewDecoder(rd, f, ctrs))
		}
	}
	if o.push {
		o.pushQueue = source.NewPushQueue(0)
		sources = append(sources, o.pushQueue)
	}

	var src stream.Source
	if len(sources) == 1 {
		src = sources[0]
	} else {
		src = &stream.MultiSource{Sources: sources}
	}
	if o.speedup > 0 {
		src = &stream.PacedSource{Src: src, Speedup: o.speedup}
	}
	return src, closers, nil
}

// detectorOptions builds the core options shared by the standalone engine
// and the aggregator.
func (o *options) detectorOptions() []core.Option {
	opts := []core.Option{
		core.WithSeed(o.seed),
		core.WithIDFThreshold(o.idf),
		core.WithThreshold(o.threshold),
		core.WithSingleClientThreshold(o.singleThresh),
	}
	if o.verbose {
		opts = append(opts, core.WithObserver(&core.LogObserver{W: os.Stderr, Prefix: "smashd: "}))
	}
	return opts
}

// printWindows consumes the window stream, rendering each result as text
// or NDJSON — shared by the standalone and aggregate roles.
func printWindows(out io.Writer, results <-chan stream.WindowResult, jsonOut, verbose bool) error {
	enc := json.NewEncoder(out)
	for w := range results {
		if jsonOut {
			rec := windowRecord{
				Window: w.Seq, Start: w.Start, End: w.End,
				Requests: w.Requests, Deltas: w.Deltas,
			}
			if w.Report != nil {
				rec.Campaigns = len(w.Report.Campaigns) + len(w.Report.SingleClientCampaigns)
			} else if w.Requests > 0 {
				rec.Aborted = true
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintln(out, w.Render())
		for i := range w.Deltas {
			d := &w.Deltas[i]
			fmt.Fprintln(out, "  "+d.Render())
			if verbose {
				for _, s := range d.NewServers {
					fmt.Fprintf(out, "    + %s\n", s)
				}
			}
		}
	}
	return nil
}

// serveHTTP starts the ops API server on addr and returns its shutdown
// function, to be run after the stream drains. A cancelled run context
// cuts serving short.
func serveHTTP(ctx context.Context, addr string, handler http.Handler, log *slog.Logger) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	log.Info("http api listening", "addr", ln.Addr().String())
	if onListen != nil {
		onListen(ln.Addr())
	}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	return func() {
		sctx, scancel := context.WithTimeout(ctx, 3*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
		if err := <-httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("http server failed", "err", err)
		}
	}, nil
}

// notifySignals installs the two-phase shutdown handler: the first
// SIGINT/SIGTERM calls drain (seal and emit in-flight windows), a second
// cancels the run context, aborting in-flight work. The returned stop
// function removes the handler.
func notifySignals(ctx context.Context, cancel context.CancelFunc, drain func(), log *slog.Logger) func() {
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigCh:
		case <-ctx.Done():
			return
		}
		log.Info("interrupted; draining open windows (signal again to abort)")
		drain()
		select {
		case <-sigCh:
			log.Warn("aborting in-flight detections")
			cancel()
		case <-ctx.Done():
		}
	}()
	return func() { signal.Stop(sigCh) }
}

// openStore opens the durability layer when -state-dir or serving demands
// one; nil when neither does.
func openStore(o *options) (*store.Store, error) {
	if o.stateDir == "" && o.listen == "" && o.clusterListen == "" {
		return nil, nil
	}
	return store.Open(store.Config{
		Dir:           o.stateDir,
		SnapshotEvery: o.snapEvery,
		Sync:          o.walSync,
		RetainWindows: o.retainWin,
		RetainAge:     o.retainAge,
		NewTracker: func() *tracker.Tracker {
			tk := tracker.New()
			tk.RetireAfter = o.retireAfter
			return tk
		},
	})
}

func runStandalone(ctx context.Context, o *options, stdin io.Reader, out io.Writer) error {
	if o.push && o.listen == "" {
		return fmt.Errorf("-push needs -listen (events arrive on POST /v1/ingest)")
	}
	// The store opens before the source: a -follow tailer checkpoints
	// into the same -state-dir, and resuming needs the store's last
	// applied window as the dedup horizon.
	st, err := openStore(o)
	if err != nil {
		return err
	}
	src, closers, err := openSource(o, stdin)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()

	// Resume filter: re-read events the previous process already applied
	// durably (tail re-reads past the conservative checkpoint offset,
	// re-pushed batches) fall below the last applied window's end and are
	// skipped, so a restart neither duplicates nor loses events.
	if st != nil && (o.follow || o.push) {
		if last := st.LastWindow(); last != nil {
			var ctrs *source.Counters
			if len(o.srcCtrs) > 0 {
				ctrs = o.srcCtrs[0]
			}
			src = &source.SkipBelow{Src: src, Horizon: last.End, Counters: ctrs}
			o.logger.Info("resuming ingestion", "horizon", last.End)
		}
	}
	if o.tailer != nil {
		if path, off, ok := o.tailer.Resume(); ok {
			o.logger.Info("resuming tail from checkpoint", "file", path, "offset", off)
		}
	}
	if onSource != nil {
		onSource(o)
	}

	// The store is the durability layer and the HTTP read model: with
	// -state-dir it restores lineage state from snapshot + WAL and keeps
	// persisting; with only -listen it mirrors state in memory for serving.
	engCfg := stream.Config{
		Name:      "smashd",
		Window:    o.window,
		Stride:    o.stride,
		Watermark: o.watermark,
		Workers:   o.workers,
		Shards:    o.shards,
		Detector:  o.detectorOptions(),
		Metrics:   o.reg,
		Tracer:    o.tracer,
		Logger:    o.logger.With("component", "engine"),
	}
	if st != nil {
		defer st.Close()
		if restored := st.Applied(); restored > 0 {
			o.logger.Info("restored durable state",
				"windows", restored, "walRecords", st.Stats().Replayed, "dir", o.stateDir)
		}
		engCfg.Tracker = st.Restore()
		engCfg.Sinks = []stream.Sink{st}
	} else if o.retireAfter > 0 {
		engCfg.Tracker = tracker.New()
		engCfg.Tracker.RetireAfter = o.retireAfter
	}
	// The checkpoint sink runs after the store sink: by the time it
	// commits a tail offset, the window behind it is already on disk.
	if o.tailer != nil {
		engCfg.Sinks = append(engCfg.Sinks, &source.CheckpointSink{T: o.tailer})
	}
	eng, err := stream.New(engCfg)
	if err != nil {
		return err
	}

	// Two-phase shutdown: the first SIGINT/SIGTERM drains — Stop seals and
	// emits every in-flight window, so interrupting a live feed still
	// reports what was ingested. A second signal cancels the run context,
	// aborting in-flight detections at their next stage boundary. The
	// deferred cancel also unparks the goroutine on a signal-free return.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The ops API serves live state for the whole run and shuts down
	// gracefully once the stream has drained. Its shutdown context is the
	// run context: a second signal (hard abort) also cuts serving short.
	if o.listen != "" {
		pushOpts, _ := o.sourceOptions()
		shutdown, err := serveHTTP(ctx, o.listen, serve.NewHandler(serve.Config{
			Store:       st,
			EngineStats: eng.Stats,
			Push:        o.pushQueue,
			PushOptions: pushOpts,
			Sources:     o.sourceStats,
			Node:        o.node,
			Role:        "standalone",
			Started:     time.Now(),
			Metrics:     o.reg,
			Tracer:      o.tracer,
			Pprof:       o.pprofOn,
		}), o.logger.With("component", "http"))
		if err != nil {
			return err
		}
		defer shutdown()
	}
	defer notifySignals(ctx, cancel, o.drain(eng.Stop), o.logger)()

	if err := printWindows(out, eng.StartContext(ctx, src), o.jsonOut, o.verbose); err != nil {
		return err
	}
	if err := eng.Err(); err != nil {
		return err
	}
	// Final snapshot + WAL compaction, so the next start restores without
	// replay. The deferred Close is then a no-op.
	if st != nil {
		if err := st.Close(); err != nil {
			return err
		}
	}

	stats := eng.Stats()
	if o.jsonOut {
		return json.NewEncoder(out).Encode(map[string]any{
			"events": stats.Events, "late": stats.Late,
			"windows": stats.Windows, "emptyWindows": stats.EmptyWindows,
			"lineages": len(eng.Tracker().Lineages()),
		})
	}
	fmt.Fprintf(out, "ingested %d events (%d late-dropped) into %d windows (%d empty)\n",
		stats.Events, stats.Late, stats.Windows, stats.EmptyWindows)
	fmt.Fprint(out, eng.Tracker().Summary())
	return nil
}
