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
// counted (/v1/stats .sources[].parseErrors) and skipped, never fatal.
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
// -state-dir makes campaign lineages durable: every window is written to
// the per-window history log (DIR/history/) and snapshotted periodically
// (internal/store), and a restarted smashd pointed at the same directory
// resumes its lineages exactly where the previous process — even one
// killed with SIGKILL — left off. -retire-after N retires lineages idle
// for more than N windows (excluded from matching, member history pruned,
// scalar summary kept for reporting), bounding tracker memory on endless
// streams. Retired lineages emit a "retire" delta in the window they idle
// out.
//
// The same history log backs the analytics endpoints: time-range window
// queries, lineage timelines and SSE delta replay all survive restarts.
// -retain-windows N caps it at the newest N windows; -retain-age D drops
// windows more than D of event time behind the newest — so months-long
// runs stay bounded on disk. Both default to 0 (keep everything).
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
// -trace-log-keep rotated segments (FILE.1 oldest-last). -version prints
// the build version (set via -ldflags "-X main.version=...") and the Go
// toolchain, also exported as the constant smash_build_info gauge with
// version, goversion and role labels. Counts are not repeated on
// /metrics: process-wide ones live in /v1/stats, per-child rows and the
// forwarding leg in /v1/cluster.
//
// In cluster roles every fragment carries an append-only hop trail —
// which node sent it, in which role, when it was sent and accepted, after
// how many attempts and how long in the spool — so the aggregator's
// window traces include one span per hop and GET /v1/cluster on any node
// returns its subtree: each known child's role, watermark, lag, estimated
// clock skew (.children[].clockSkewSeconds) and last spool dwell,
// recursively through merge tiers. Diagnostics log through log/slog:
// -log-format picks text or json, -log-level one of
// debug, info, warn, error.
//
// # Cluster roles
//
// A single process caps ingestion at one machine; -role splits the
// pipeline across processes (internal/cluster). A role is two independent
// choices — where sealed windows come from (the front) and where they go
// (the back):
//
//	                     back: detect → track → store   back: forward the index
//	front: events        standalone                     ingest
//	front: fragments     aggregate                      merge
//
// The events front reads a source (files, stdin, -follow, -push) into a
// stream engine and serves the ops API on -listen. Under a forwarding
// back its windows anchor at the Unix epoch, not at the first event, so
// all nodes of a tree agree on window ids without coordination, and
// -shard-of N/M keeps only clients hashing to partition N of M, so every
// node can read the same full feed (pre-partitioned inputs — tracegen
// -partitions — skip the filter). With -state-dir and -follow it keeps
// the tail offset in DIR/source.ckpt.
//
// The fragments front listens on -cluster-listen (ops API, POST
// /v1/ingest and cluster metrics included) for wire fragments from
// -expect children — ingest nodes or merge tiers — aligns them on
// epoch-derived window ids and merges each window once every child has
// forwarded or passed it. -straggler N force-seals windows once the lead
// child runs N windows ahead; late fragments are counted and dropped.
// The process exits once every expected child has sent its end-of-stream
// marker. With -state-dir it is crash-recoverable: every accepted
// fragment is appended to a fragment log (DIR/fragments) before it is
// acknowledged, and a restarted process — even one killed with SIGKILL
// mid-stream — replays the log and resumes with continuous window
// numbering and byte-identical output. /v1/cluster shows the membership
// view: per-node fragment counts, watermark, last-seen time, and whether
// a node is overdue for its final marker.
//
// The detecting back runs detection, tracking and persistence on every
// sealed window, whichever front sealed it — an aggregate run's output is
// byte-identical to a standalone run over the same traffic. -state-dir
// holds the store (snapshot, DIR/history); a restarted fragments
// front reconciles the one window a crash can interrupt against it.
//
// The forwarding back runs no detection and keeps no lineage state: it
// ships each sealed window's index (wire-encoded, with its symbol
// dictionary) to -forward URL as a fragment under the node's -node name
// (default "shardN" under -shard-of), retrying transient failures with
// full-jitter backoff, and sends an end-of-stream marker when the front
// drains. With -state-dir it gains a durable spool: fragments that
// exhaust their retries during a parent outage spill to DIR/spool and
// drain in order — oldest first — when the parent answers again,
// surviving node restarts too. A restarted merge tier re-forwards the
// one window a crash can interrupt; the parent drops the duplicate.
// Merging is associative, so any tree shape produces byte-identical
// output.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"smash/internal/cluster"
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

	// part of parts is -shard-of N/M, parsed by validate; parts == 0
	// without the flag.
	part, parts int

	// Shared observability plane, built once per process in run().
	logger *slog.Logger
	reg    *obs.Registry
	tracer *obs.Tracer

	// Live source state, populated by openSource: per-source counters
	// (the sources block of /v1/stats), the tailer behind -follow and
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
	fs.StringVar(&o.stateDir, "state-dir", "", "durable campaign-state directory (snapshot + per-window history log); empty disables persistence")
	fs.StringVar(&o.listen, "listen", "", "HTTP query/ops API address (e.g. :8080); empty disables serving")
	fs.IntVar(&o.retireAfter, "retire-after", 0, "retire lineages idle for more than N windows (0 = never)")
	fs.IntVar(&o.snapEvery, "snapshot-every", 64, "windows between state snapshots; a restart replays at most this many history records")
	fs.BoolVar(&o.walSync, "wal-sync", true, "fsync every window's history file and directory (survives machine death, not just process death)")
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
	r, err := o.validate()
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	// A forwarding node is one of many feeding the same parent: every
	// component's log lines say which.
	if r.forwards {
		logger = logger.With("node", o.node)
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
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	return serveRole(ctx, &o, r, stdin, out)
}

// role is a smashd process shape — two independent choices. The front is
// where sealed windows come from: events off a source windowed by a
// stream.Engine, or (fragments) wire fragments from -expect children
// assembled by a cluster.Aggregator. The back is where they go: detection
// → tracker → store, or (forwards) the bare index to the -forward parent.
type role struct{ fragments, forwards bool }

var roles = map[string]role{
	"standalone": {},
	"ingest":     {forwards: true},
	"aggregate":  {fragments: true},
	"merge":      {fragments: true, forwards: true},
}

// validate checks the flags the role's front and back need, before
// anything is opened, and fills in what they imply (-shard-of's
// partition and default node name). Flags the role has no use for are
// ignored, not refused: one command line can drive every node of a tree.
func (o *options) validate() (role, error) {
	r, ok := roles[o.role]
	if !ok {
		return r, fmt.Errorf("unknown -role %q (want standalone, ingest, merge or aggregate)", o.role)
	}
	switch {
	case r.fragments && o.clusterListen == "":
		return r, fmt.Errorf("-role %s requires -cluster-listen ADDR", o.role)
	case r.fragments && o.expect <= 0:
		return r, fmt.Errorf("-role %s requires -expect N (the child node count)", o.role)
	case r.fragments && o.listen != "":
		return r, fmt.Errorf("-role %s serves its ops API on -cluster-listen; drop -listen", o.role)
	case r.fragments && len(o.paths) > 0:
		return r, fmt.Errorf("-role %s takes no trace files; ingest nodes do the reading", o.role)
	case !r.fragments && o.push && o.listen == "":
		return r, errors.New("-push needs -listen (events arrive on POST /v1/ingest)")
	case r.forwards && o.forward == "":
		return r, fmt.Errorf("-role %s requires -forward URL (the parent's base URL)", o.role)
	}
	if r.forwards && !r.fragments && o.shardOf != "" {
		var err error
		if o.part, o.parts, err = parseShardOf(o.shardOf); err != nil {
			return r, err
		}
		if o.node == "" {
			o.node = fmt.Sprintf("shard%d", o.part)
		}
	}
	if r.forwards && o.node == "" {
		return r, fmt.Errorf("-role %s requires -node, its name in the parent's fragments (ingest: or -shard-of to derive one)", o.role)
	}
	return r, nil
}

// parseShardOf parses "-shard-of N/M" into (shard, of).
func parseShardOf(s string) (int, int, error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard-of must be N/M (e.g. 0/2), got %q", s)
	}
	shard, err1 := strconv.Atoi(lhs)
	of, err2 := strconv.Atoi(rhs)
	if err1 != nil || err2 != nil || of <= 0 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("-shard-of must be N/M with 0 <= N < M, got %q", s)
	}
	return shard, of, nil
}

// statePath names an entry under -state-dir; empty — the feature it backs
// is off — without one.
func (o *options) statePath(name string) string {
	if o.stateDir == "" {
		return ""
	}
	return filepath.Join(o.stateDir, name)
}

// newTracker builds a lineage tracker under the -retire-after policy.
func (o *options) newTracker() *tracker.Tracker {
	tk := tracker.New()
	tk.RetireAfter = o.retireAfter
	return tk
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
		ctrs := source.NewCounters(o.paths[0], o.format)
		t, err := source.NewTailer(source.TailerConfig{
			Path:       o.paths[0],
			Format:     f,
			Counters:   ctrs,
			Checkpoint: o.statePath("source.ckpt"),
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

// detectorOptions builds the core options of a detecting back.
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

// printWindows consumes a detecting role's window stream, rendering each
// result as text or NDJSON.
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
		NewTracker:    o.newTracker,
	})
}

// printForwarded consumes an ingest node's window stream: one line (or
// NDJSON record) per window handed to the forwarder.
func printForwarded(out io.Writer, results <-chan stream.WindowResult, jsonOut bool) error {
	enc := json.NewEncoder(out)
	for w := range results {
		if jsonOut {
			if err := enc.Encode(windowRecord{
				Window: w.Seq, Start: w.Start, End: w.End, Requests: w.Requests,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(out, "forwarded window %d [%s .. %s) requests=%d\n",
			w.Seq, w.Start.Format(time.RFC3339), w.End.Format(time.RFC3339), w.Requests)
	}
	return nil
}

// serveRole runs one smashd process of role r: build the back (where
// sealed windows go), build the front (where they come from) committing
// into the back's sinks, serve the ops API, report windows until the
// front drains, finish the back, print the summary.
func serveRole(ctx context.Context, o *options, r role, stdin io.Reader, out io.Writer) error {
	api := serve.Config{
		Node:    o.node,
		Role:    o.role,
		Started: time.Now(),
		Metrics: o.reg,
		Tracer:  o.tracer,
		Pprof:   o.pprofOn,
	}

	// Back. A forwarding node ships every sealed index to its parent,
	// with -state-dir through a durable spool (DIR/spool: fragments the
	// parent could not take survive restarts and drain once it answers
	// again); lineage state lives at the root, so its ops API serves an
	// empty store. A detecting node's store is the durability layer and
	// the HTTP read model: with -state-dir it restores lineage state from
	// snapshot + history and keeps persisting, with only a listener it mirrors
	// state in memory for serving. The store opens before the source: a
	// -follow tailer checkpoints into the same -state-dir, and resuming
	// needs the store's last applied window as the dedup horizon.
	var (
		st    *store.Store
		fwd   *cluster.Forwarder
		tk    *tracker.Tracker
		sinks []stream.Sink
		err   error
	)
	if r.forwards {
		if st, err = store.Open(store.Config{}); err != nil {
			return err
		}
		stride := o.stride
		if stride == 0 {
			stride = o.window
		}
		fwd, err = cluster.NewForwarder(cluster.ForwarderConfig{
			URL:      o.forward,
			Node:     o.node,
			Role:     o.role,
			Stride:   stride,
			SpoolDir: o.statePath("spool"),
			Metrics:  o.reg,
			Logger:   o.logger.With("component", "forward"),
		})
		if err != nil {
			return err
		}
		sinks = []stream.Sink{fwd}
		api.ForwarderStats = fwd.Stats
	} else {
		if st, err = openStore(o); err != nil {
			return err
		}
		if st == nil {
			tk = o.newTracker()
		} else {
			defer st.Close()
			if restored := st.Applied(); restored > 0 {
				o.logger.Info("restored durable state",
					"windows", restored, "replayed", st.Stats().Replayed, "dir", o.stateDir)
			}
			tk = st.Restore()
			sinks = []stream.Sink{st}
		}
	}
	api.Store = st

	// Front. Either way the first signal drains it: in-flight windows are
	// sealed and committed into the back before the stream closes.
	var (
		listen string
		start  func(context.Context) <-chan stream.WindowResult
		stop   func()
		runErr func() error
		// summary adds the front's counters to the -json summary record
		// and returns the text summary's front clause.
		summary func(rec map[string]any) string
	)
	if r.fragments {
		// With -state-dir the tier is crash-recoverable: every acked
		// fragment lands in DIR/fragments before the 202, and a restart
		// replays un-sealed windows. A detecting tier reconciles the one
		// window a crash can interrupt against the store's last applied
		// window seq (at most one window is redone); a forwarding tier
		// re-forwards it and the parent dedupes.
		applied := 0
		if last := st.LastWindow(); last != nil {
			applied = last.Window + 1
		}
		agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
			Name:           "smashd",
			Window:         o.window,
			Stride:         o.stride,
			Expect:         o.expect,
			Straggler:      o.straggler,
			IndexOnly:      r.forwards,
			Detector:       o.detectorOptions(),
			Tracker:        tk,
			Sinks:          sinks,
			FragDir:        o.statePath("fragments"),
			FragSync:       o.walSync,
			AppliedWindows: applied,
			Metrics:        o.reg,
			Tracer:         o.tracer,
			Logger:         o.logger.With("component", "aggregator"),
		})
		if err != nil {
			return err
		}
		api.Aggregator = agg
		listen, start, stop, runErr = o.clusterListen, agg.Start, agg.Stop, agg.Err
		summary = func(rec map[string]any) string {
			cs := agg.Stats()
			rec["nodes"], rec["fragments"] = cs.Nodes, cs.Fragments
			rec["lateFragments"], rec["duplicateFragments"] = cs.LateFragments, cs.DuplicateFragments
			rec["windows"], rec["emptyWindows"] = cs.Windows, cs.EmptyWindows
			verb := "merged"
			if !r.forwards {
				verb, rec["requests"] = "aggregated", cs.Requests
			}
			return fmt.Sprintf("%s %d fragments from %d nodes (%d late, %d duplicate) into %d windows (%d empty)",
				verb, cs.Fragments, cs.Nodes, cs.LateFragments, cs.DuplicateFragments, cs.Windows, cs.EmptyWindows)
		}
	} else {
		src, closers, err := openSource(o, stdin)
		if err != nil {
			return err
		}
		defer func() {
			for _, c := range closers {
				c.Close()
			}
		}()
		engCfg := stream.Config{
			Name:      "smashd",
			Window:    o.window,
			Stride:    o.stride,
			Watermark: o.watermark,
			Workers:   o.workers,
			Shards:    o.shards,
			IndexOnly: r.forwards,
			Detector:  o.detectorOptions(),
			Tracker:   tk,
			Sinks:     sinks,
			Metrics:   o.reg,
			Tracer:    o.tracer,
			Logger:    o.logger.With("component", "engine"),
		}
		if r.forwards {
			// Window boundaries anchor at the Unix epoch so every node
			// of the tree agrees on window ids without coordination.
			engCfg.Origin = cluster.Epoch
			if o.parts > 0 {
				src = &cluster.ShardSource{Src: src, Shard: o.part, Of: o.parts}
			}
		} else {
			// Resume filter: re-read events the previous process already
			// applied durably (tail re-reads past the conservative
			// checkpoint offset, re-pushed batches) fall below the last
			// applied window's end and are skipped, so a restart neither
			// duplicates nor loses events.
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
				// The checkpoint sink runs after the store sink: by the
				// time it commits a tail offset, the window behind it is
				// already on disk.
				engCfg.Sinks = append(engCfg.Sinks, &source.CheckpointSink{T: o.tailer})
			}
			if onSource != nil {
				onSource(o)
			}
		}
		eng, err := stream.New(engCfg)
		if err != nil {
			return err
		}
		api.EngineStats, api.Sources = eng.Stats, o.sourceStats
		api.Push = o.pushQueue
		api.PushOptions, _ = o.sourceOptions()
		listen, stop, runErr = o.listen, o.drain(eng.Stop), eng.Err
		start = func(ctx context.Context) <-chan stream.WindowResult { return eng.StartContext(ctx, src) }
		summary = func(rec map[string]any) string {
			es := eng.Stats()
			rec["events"], rec["late"] = es.Events, es.Late
			rec["windows"], rec["emptyWindows"] = es.Windows, es.EmptyWindows
			return fmt.Sprintf("ingested %d events (%d late-dropped) into %d windows (%d empty)",
				es.Events, es.Late, es.Windows, es.EmptyWindows)
		}
	}

	// Two-phase shutdown: the first SIGINT/SIGTERM drains the front, so
	// interrupting a live feed still reports what was ingested. A second
	// signal cancels the run context, aborting in-flight detections at
	// their next stage boundary. The deferred cancel also unparks the
	// goroutine on a signal-free return.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The ops API serves live state for the whole run and shuts down
	// gracefully once the stream has drained. Its shutdown context is the
	// run context: a second signal (hard abort) also cuts serving short.
	if listen != "" {
		shutdown, err := serveHTTP(ctx, listen, serve.NewHandler(api), o.logger.With("component", "http"))
		if err != nil {
			return err
		}
		defer shutdown()
	}
	defer notifySignals(ctx, cancel, stop, o.logger)()

	// Report. A fragments front runs until every expected child has sent
	// its end-of-stream marker. A merge tier has nothing to say per
	// window, but the stream must still be drained for the tier to seal.
	results := start(ctx)
	switch {
	case !r.forwards:
		err = printWindows(out, results, o.jsonOut, o.verbose)
	case !r.fragments:
		err = printForwarded(out, results, o.jsonOut)
	default:
		for range results {
		}
	}
	if err == nil {
		err = runErr()
	}
	if err != nil {
		return err
	}

	// Finish the back. A forwarding node's end-of-stream marker tells the
	// parent it is done, so windows there can seal without waiting on the
	// straggler policy; CloseContext drains any spool first and keeps
	// retrying through a parent outage until a shutdown signal cancels
	// the context. A hard-aborted fragment tier skips it: its restart
	// owns the stream's tail. A store takes its final snapshot, so the
	// next start restores without replay (the deferred Close is then a
	// no-op).
	rec := make(map[string]any)
	text := summary(rec)
	if r.forwards {
		if !r.fragments || ctx.Err() == nil {
			if err := fwd.CloseContext(ctx); err != nil {
				return err
			}
		}
		fs := fwd.Stats()
		rec["node"], rec["forwarded"], rec["retries"], rec["bytes"] = o.node, fs.Forwarded, fs.Retries, fs.Bytes
		rec["spooled"], rec["spoolDropped"] = fs.Spooled, fs.SpoolDropped
		// "node shard0: ingested …; forwarded 9 fragments (…) to URL",
		// "merge merge0: merged …; forwarded 9 (…) to URL".
		what, unit := "node", " fragments"
		if r.fragments {
			what, unit = "merge", ""
		}
		text = fmt.Sprintf("%s %s: %s; forwarded %d%s (%d retries, %d bytes) to %s\n",
			what, o.node, text, fs.Forwarded, unit, fs.Retries, fs.Bytes, o.forward)
		if !r.fragments && (fs.Spooled > 0 || fs.SpoolPending > 0) {
			text += fmt.Sprintf("spool: %d fragments spilled during outages (%d dropped, %d still pending)\n",
				fs.Spooled, fs.SpoolDropped, fs.SpoolPending)
		}
	} else {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		rec["lineages"] = len(tk.Lineages())
		text += "\n" + tk.Summary()
	}
	if o.jsonOut {
		return json.NewEncoder(out).Encode(rec)
	}
	_, err = io.WriteString(out, text)
	return err
}
