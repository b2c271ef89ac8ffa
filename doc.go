// Package smash is a from-scratch Go reproduction of SMASH — "Systematic
// Mining of Associated Server Herds for Malware Campaign Discovery"
// (Zhang, Saha, Gu, Lee, Mellia; ICDCS 2015).
//
// SMASH ingests network-wide HTTP traffic and discovers Associated Server
// Herds: groups of servers involved in the same malware campaign — C&C
// domain-flux pools, drop zones, exploit kits, scanned victim pools,
// webshell-injected benign sites. It mines per-dimension server-similarity
// graphs (client sets, URI files, IP sets, whois records), extracts
// communities with Louvain modularity clustering, correlates the
// communities across dimensions with an erf-shaped scoring function, prunes
// redirection/referrer noise, and merges the surviving herds into whole
// campaigns.
//
// Layout:
//
//   - internal/core        — the staged detection pipeline (public API):
//     core.Pipeline running the five stages as one fixed sequence,
//     context cancellation, parallel dimension mining, Observer hooks
//   - internal/stream      — streaming ingestion engine: sliding windows,
//     sharded incremental indexing, watermark, worker pool, lineage
//     deltas, pluggable result sinks
//   - internal/store       — durable campaign-state store: snapshot +
//     per-window history log (the one log a restart replays),
//     crash-safe restore, live mirror, count/age retention and GC that
//     snapshots before it drops unreplayed history, and gap-free delta
//     subscriptions for live consumers
//   - internal/serve       — embedded HTTP query/ops API over the store:
//     /v1/lineages (paginated, filterable), /v1/lineages/{id}/timeline,
//     /v1/windows (seq/time ranges), /v1/windows/latest,
//     /v1/windows/{seq}/trace, /v1/deltas (SSE with Last-Event-ID
//     resume), /v1/stats, /healthz, Prometheus /metrics, optional
//     /debug/pprof, and the cluster's POST /v1/ingest intake
//   - internal/obs         — stdlib-only observability plane: concurrent
//     metrics registry (counters, gauges, log-bucketed latency
//     histograms, func collectors, runtime stats, Prometheus text
//     rendering), bounded window-lifecycle Tracer, slog helpers
//   - internal/wire        — versioned binary codec shipping trace.Index
//     window fragments (with their symbol dictionaries) between processes
//   - internal/cluster     — horizontal scale-out: ingest-side fragment
//     Forwarder (stream.Sink) with a durable on-disk spool, the
//     window-aligning Aggregator with per-node watermarks, a straggler
//     policy and crash recovery via a fragment log (WAL of raw wire
//     fragments, replayed on restart); an IndexOnly Aggregator with a
//     Forwarder sink is the detection-free merge tier of fan-in trees
//   - internal/source      — real-traffic ingestion surface: access-log
//     format parsers (tsv, Apache/Nginx common and combined, JSON lines
//     with field mapping) with strict error accounting, a
//     rotation-following file tailer with byte-offset checkpoints, and
//     the bounded queue behind the HTTP push intake
//   - internal/trace       — HTTP traffic model, TSV codec, interned-ID
//     server index (shared symbol tables, counted aggregates that Merge
//     exactly)
//   - internal/intern      — dense string↔uint32 interning tables
//   - internal/similarity  — the four dimension metrics and graph builders
//   - internal/graph       — weighted graphs + Louvain community detection
//   - internal/sparse      — pooled row-wise co-occurrence products over
//     interned feature ids (pairwise sims)
//   - internal/herd        — ASH mining over dimension graphs
//   - internal/correlate   — eq. (9) multi-dimension scoring
//   - internal/prune       — redirection/referrer noise pruning
//   - internal/campaign    — campaign inference and classification
//   - internal/synth       — synthetic ISP world (the evaluation substrate)
//   - internal/ids         — simulated IDS snapshots and blacklists
//   - internal/eval        — reproduction of every table and figure
//   - internal/profiling   — pprof wiring for the CLIs' -cpuprofile /
//     -memprofile flags
//   - cmd/smash, cmd/tracegen, cmd/smashbench — batch CLIs
//   - cmd/smashd           — streaming daemon over TSV files, stdin,
//     tailed access logs (-format, -follow) or pushed batches (-push),
//     with durable state (-state-dir), the ops API (-listen), and
//     cluster roles (-role ingest|merge|aggregate) with crash
//     recovery and spooling riding on the same -state-dir
//   - examples/            — runnable scenarios
//
// See README.md for a walkthrough and DESIGN.md for the staged pipeline
// API (stage graph, Observer contract, cancellation semantics), the
// Performance section (interned-ID data plane, incremental sliding
// windows, scratch reuse), the Sources section (format grammars and the
// projection laws, rotation/checkpoint semantics, push backpressure),
// the Cluster section (fragment lifecycle, window alignment, straggler
// policy, canonical byte-merge invariants, and the fault-tolerance protocol:
// fragment log, frontier reconcile, spool, merge tier), the
// Observability section (metric catalog, span model, logging
// conventions) and the Analytics plane section (history log format,
// retention/GC rules, SSE resume semantics). The benchmarks in bench_test.go regenerate each
// experiment; bench/smashload (see bench/README.md) measures performance,
// end to end and layer by layer.
package smash
