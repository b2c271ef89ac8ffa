// Package serve is smashd's embedded HTTP query/ops API: the read path
// over the campaign-state store (internal/store) that lets operators ask
// "what campaigns are live right now" while the detector runs.
//
// Endpoints:
//
//	GET  /healthz                   liveness probe
//	GET  /metrics                   Prometheus text metrics rendered from
//	                                an obs.Registry: latency histograms
//	                                from the engine / aggregator /
//	                                forwarder, live gauges, the store's
//	                                disk and history gauges, build
//	                                identity and Go runtime stats — only
//	                                what no JSON field carries
//	GET  /v1/lineages               lineages (summaries, ordered by ID;
//	                                ?limit=N&offset=M paginate;
//	                                ?server=&kind=&minServers=&minClients=
//	                                &activeFrom=&activeTo= filter)
//	GET  /v1/lineages/{id}          one lineage with full history
//	GET  /v1/lineages/{id}/timeline per-window score/membership/churn
//	                                series for one lineage, from the
//	                                store's history log
//	GET  /v1/windows                retained window records in a seq or
//	                                time range (?from=&to=, seq numbers
//	                                or RFC 3339; ?limit=&offset= paginate)
//	GET  /v1/windows/latest         the most recently applied window record
//	GET  /v1/windows/{seq}/trace    one window's lifecycle spans (build,
//	                                seal, detect stages, sink consumes)
//	                                from the obs.Tracer ring
//	GET  /v1/stats                  store + engine (+ cluster, sources)
//	                                counters: the one home of every
//	                                process-wide count
//	GET  /v1/cluster                this node's place in the cluster tree:
//	                                role, upstream delivery leg, and (on
//	                                aggregator/merge roles) every known
//	                                child — watermark, lag, clock skew,
//	                                spool dwell — recursively from hop
//	                                provenance
//	GET  /v1/deltas                 lineage transitions as Server-Sent
//	                                Events: retained history first, then
//	                                live deltas as windows seal; resumes
//	                                losslessly from Last-Event-ID
//	POST /v1/ingest                 cluster fragment intake (aggregator
//	                                role only): a wire-encoded window
//	                                fragment from an ingest node
//	     /debug/pprof/...           net/http/pprof (only with Config.Pprof)
//
// All /v1 responses are stable, indentation-formatted JSON (golden-tested);
// map keys serialize sorted, so output is deterministic for a fixed state.
// Handlers read the store's mutex-guarded mirror and lock-free atomic
// engine counters. Store reads are cheap (scalar copies; member maps are
// cloned only for single-lineage detail), but they share one mutex with
// the persistence path: a scrape can briefly wait on an in-progress
// history fsync or snapshot, and window emission can briefly wait on a burst of
// scrapes. The detection pipeline itself (windowing, mining, scoring)
// never touches that lock.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smash/internal/cluster"
	"smash/internal/obs"
	"smash/internal/source"
	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// Config wires the handler's data sources.
type Config struct {
	// Store is the campaign-state store backing every /v1 endpoint
	// (required).
	Store *store.Store
	// EngineStats, when set, contributes live engine ingestion counters to
	// /v1/stats (use Engine.Stats).
	EngineStats func() stream.Stats
	// Aggregator, when set, enables the POST /v1/ingest fragment intake
	// and contributes cluster counters to /v1/stats and per-child rows to
	// /v1/cluster — the aggregate and merge roles' wiring (a merge tier
	// is an IndexOnly aggregator).
	Aggregator *cluster.Aggregator
	// Push, when set, enables raw-event intake on POST /v1/ingest:
	// NDJSON / TSV / access-log request bodies (format negotiated by
	// Content-Type, see pushFormats) are parsed with strict error
	// accounting and queued for the engine. Push and Aggregator may
	// coexist on one listener; the cluster fragment Content-Type routes
	// to the aggregator, everything else to the push queue.
	Push *source.PushQueue
	// PushOptions parameterizes the push parsers (static Host fallback,
	// JSONL field mapping) — usually the same Options the daemon's file
	// source was built with.
	PushOptions source.Options
	// Sources, when set, contributes a sources block to /v1/stats (push
	// intake counters are appended automatically when Push is set).
	Sources func() []source.Stats
	// Node and Role identify this process in the /v1/cluster topology
	// view ("shard0"/"ingest", "merge0"/"merge", "" defaults to the
	// process name and "standalone").
	Node string
	Role string
	// ForwarderStats, when set, contributes this node's upstream delivery
	// leg (spool depth, retries) to /v1/cluster — the ingest and merge
	// roles' wiring (use Forwarder.Stats).
	ForwarderStats func() cluster.ForwarderStats
	// Started stamps the /healthz uptime; zero disables the field.
	Started time.Time
	// Metrics is the registry rendered at /metrics. Pass the registry the
	// engine/aggregator/forwarder instruments live on so their latency
	// histograms and gauges appear alongside the store disk and history
	// gauges this handler registers. Nil builds a private registry (those
	// gauges and runtime stats still render).
	Metrics *obs.Registry
	// Tracer, when set, enables GET /v1/windows/{seq}/trace over the
	// tracer's ring of recent window traces.
	Tracer *obs.Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose process internals and burn real CPU when
	// scraped, so operators opt in per process.
	Pprof bool
}

// maxFragmentBytes bounds a /v1/ingest request body. Window fragments are
// compact relative to the traffic they summarize; anything past this is a
// confused or hostile client, not a bigger window.
const maxFragmentBytes = 256 << 20

// NewHandler builds the API's http.Handler and registers the store's
// disk and history gauges plus Go runtime stats on the metrics registry.
func NewHandler(cfg Config) http.Handler {
	if cfg.Store == nil {
		panic("serve: Config.Store is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &server{cfg: cfg, reg: reg}
	if cfg.Push != nil {
		s.pushCtrs = make(map[string]*source.Counters)
	}
	registerCollectors(reg, cfg.Store)
	obs.RegisterRuntimeMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /v1/lineages", s.lineages)
	mux.HandleFunc("GET /v1/lineages/{id}", s.lineage)
	mux.HandleFunc("GET /v1/lineages/{id}/timeline", s.lineageTimeline)
	mux.HandleFunc("GET /v1/windows", s.windows)
	mux.HandleFunc("GET /v1/windows/latest", s.latestWindow)
	mux.HandleFunc("GET /v1/deltas", s.deltas)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /v1/cluster", s.clusterTree)
	if cfg.Tracer != nil {
		mux.HandleFunc("GET /v1/windows/{seq}/trace", s.windowTrace)
	}
	if cfg.Aggregator != nil || cfg.Push != nil {
		mux.HandleFunc("POST /v1/ingest", s.ingest)
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

type server struct {
	cfg Config
	reg *obs.Registry

	// pushCtrs holds one counter block per push body format, created on
	// first use — so /v1/stats separates NDJSON pushers from TSV pushers.
	pushMu   sync.Mutex
	pushCtrs map[string]*source.Counters
}

// sourceStats merges the daemon's file/stdin source stats with the push
// intake's per-format counters — the sources list /v1/stats renders.
// The merged list is sorted by (name, format) so stats responses stay in
// one deterministic order no matter how sources were configured or in
// what order push formats first appeared.
func (s *server) sourceStats() []source.Stats {
	var out []source.Stats
	if s.cfg.Sources != nil {
		out = s.cfg.Sources()
	}
	s.pushMu.Lock()
	for _, c := range s.pushCtrs {
		out = append(out, c.Stats())
	}
	s.pushMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Format < out[j].Format
	})
	return out
}

// pushCounters returns (creating on first use) the counter block for
// one push body format.
func (s *server) pushCounters(format string) *source.Counters {
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	c := s.pushCtrs[format]
	if c == nil {
		c = source.NewCounters("push", format)
		s.pushCtrs[format] = c
	}
	return c
}

// lineageSummary is the list-view JSON shape of one lineage.
type lineageSummary struct {
	ID       int    `json:"id"`
	Kind     string `json:"kind"`
	Behavior string `json:"behavior"`
	Retired  bool   `json:"retired,omitempty"`
	// FirstWindow/LastWindow are 0-based global window sequence numbers;
	// WindowsActive counts windows with a matched campaign.
	FirstWindow   int `json:"firstWindow"`
	LastWindow    int `json:"lastWindow"`
	WindowsActive int `json:"windowsActive"`
	Servers       int `json:"servers"`
	Clients       int `json:"clients"`
}

// lineageDetail adds the full per-server/per-client window counts.
type lineageDetail struct {
	lineageSummary
	// ServerWindows/ClientWindows map each member to the number of
	// windows it appeared in.
	ServerWindows map[string]int `json:"serverWindows,omitempty"`
	ClientWindows map[string]int `json:"clientWindows,omitempty"`
}

func summarize(l *tracker.Lineage) lineageSummary {
	behavior := "persistent"
	if l.Agile() {
		behavior = "agile"
	}
	return lineageSummary{
		ID:            l.ID,
		Kind:          l.Kind.String(),
		Behavior:      behavior,
		Retired:       l.Retired,
		FirstWindow:   l.FirstDay,
		LastWindow:    l.LastDay,
		WindowsActive: l.DaysActive,
		Servers:       l.ServerCount(),
		Clients:       l.ClientCount(),
	}
}

// queryInt parses an optional non-negative integer query parameter,
// returning def when absent.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer", name)
	}
	return v, nil
}

func (s *server) lineages(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	filter, err := lineageFilterFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	all := s.cfg.Store.LineageSummaries()
	if filter.server != "" {
		// Summaries carry no member maps; resolve the server filter to an
		// ID set in one store pass. Retired lineages never match (their
		// member maps were pruned at retirement).
		filter.serverIDs = s.cfg.Store.LineagesWithServer(filter.server)
	}
	all = filter.apply(all)
	// Pagination needs a total order; summaries come ordered by ID, but
	// sort defensively so the page windows stay stable no matter what.
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	out := struct {
		// Count is the number of lineages in this response; Total and
		// Retired describe the whole collection.
		Count    int              `json:"count"`
		Total    int              `json:"total"`
		Retired  int              `json:"retired"`
		Offset   int              `json:"offset,omitempty"`
		Lineages []lineageSummary `json:"lineages"`
	}{Total: len(all), Offset: offset}
	for _, l := range all {
		if l.Retired {
			out.Retired++
		}
	}
	if offset > len(all) {
		offset = len(all)
	}
	page := all[offset:]
	if limit >= 0 && limit < len(page) {
		page = page[:limit]
	}
	out.Count = len(page)
	out.Lineages = make([]lineageSummary, 0, len(page))
	for _, l := range page {
		out.Lineages = append(out.Lineages, summarize(l))
	}
	writeJSON(w, http.StatusOK, out)
}

// pushFormats maps /v1/ingest Content-Types onto source format names
// for the raw-event push intake.
var pushFormats = map[string]string{
	"application/x-ndjson":       "jsonl",
	"application/jsonl":          "jsonl",
	"text/tab-separated-values":  "tsv",
	"application/x-smash-tsv":    "tsv",
	"text/x-common-log":          "common",
	"text/x-combined-log":        "combined",
	"application/x-common-log":   "common",
	"application/x-combined-log": "combined",
}

// ingest is the shared POST /v1/ingest intake. The body's Content-Type
// picks the plane: the cluster fragment type routes to the aggregator
// (wire-encoded window fragments from ingest nodes); the raw-event
// types (pushFormats) route to the push queue, parsed with the same
// strict error accounting as a tailed file. Both planes block while
// their consumer is behind — that blocking, surfaced as a stalled POST,
// is the end-to-end backpressure contract.
func (s *server) ingest(w http.ResponseWriter, r *http.Request) {
	ctype := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ctype, ';'); i >= 0 {
		ctype = ctype[:i]
	}
	ctype = strings.TrimSpace(strings.ToLower(ctype))
	if _, isPush := pushFormats[ctype]; isPush || (ctype != cluster.ContentType && s.cfg.Aggregator == nil) {
		// Raw-event types go to the push queue; so does everything else on
		// a non-aggregator node (the push handler owns the 415 message).
		s.ingestPush(w, r, ctype)
		return
	}
	if s.cfg.Aggregator == nil {
		writeError(w, http.StatusUnsupportedMediaType,
			"this node is not an aggregator; fragment intake is disabled")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFragmentBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read fragment: %v", err))
		return
	}
	frag, err := wire.DecodeFragment(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode fragment: %v", err))
		return
	}
	if err := s.cfg.Aggregator.Submit(frag); err != nil {
		// A stopped aggregator and a fragment that could not be made
		// durable are transient (the forwarder may retry, spool or give
		// up cleanly); anything else marks the fragment itself invalid
		// and must not be retried.
		status := http.StatusBadRequest
		if errors.Is(err, cluster.ErrStopped) || errors.Is(err, cluster.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"status": "accepted", "node": frag.Node, "window": frag.Window,
	})
}

// maxPushBytes bounds one raw-event push batch. Shippers are expected
// to batch by the second, not by the day.
const maxPushBytes = 64 << 20

// ingestPush accepts one batch of raw events. Malformed lines are
// counted and dropped, never rejected wholesale — the same contract as
// a tailed file — and the response reports both tallies. `?eos=1`
// closes the push queue after the batch: queued events drain, then the
// engine sees end-of-stream and the daemon finishes its run.
func (s *server) ingestPush(w http.ResponseWriter, r *http.Request, ctype string) {
	if s.cfg.Push == nil {
		writeError(w, http.StatusUnsupportedMediaType,
			"this node does not accept raw events (no push queue); POST a cluster fragment or use a push-enabled role")
		return
	}
	name, ok := pushFormats[ctype]
	if !ok {
		types := make([]string, 0, len(pushFormats))
		for t := range pushFormats {
			types = append(types, t)
		}
		sort.Strings(types)
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Sprintf("unsupported Content-Type %q (raw-event types: %s; cluster fragments: %s)",
				ctype, strings.Join(types, ", "), cluster.ContentType))
		return
	}
	f, err := source.New(name, s.cfg.PushOptions)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ctrs := s.pushCounters(name)
	dec := source.NewDecoder(http.MaxBytesReader(w, r.Body, maxPushBytes), f, ctrs)
	var batch []trace.Request
	for {
		req, err := dec.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read batch: %v", err))
			return
		}
		batch = append(batch, req)
	}
	// Push blocks while the engine is behind; the client's POST stalls
	// with it (backpressure), unless the client gave up first.
	if err := s.cfg.Push.Push(batch); err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	ctrs.AddBatch()
	eos := r.URL.Query().Get("eos") == "1"
	if eos {
		s.cfg.Push.Close()
	}
	out := map[string]any{
		"status":    "accepted",
		"format":    name,
		"events":    len(batch),
		"malformed": dec.Errors(),
	}
	if eos {
		out["eos"] = true
	}
	writeJSON(w, http.StatusAccepted, out)
}

func (s *server) lineage(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "lineage id must be an integer")
		return
	}
	l := s.cfg.Store.Lineage(id)
	if l == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no lineage %d", id))
		return
	}
	writeJSON(w, http.StatusOK, lineageDetail{
		lineageSummary: summarize(l),
		ServerWindows:  l.Servers,
		ClientWindows:  l.Clients,
	})
}

func (s *server) latestWindow(w http.ResponseWriter, r *http.Request) {
	rec := s.cfg.Store.LastWindow()
	if rec == nil {
		writeError(w, http.StatusNotFound, "no window applied yet")
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Store   store.Stats    `json:"store"`
		Engine  *stream.Stats  `json:"engine,omitempty"`
		Cluster *cluster.Stats `json:"cluster,omitempty"`
		Sources []source.Stats `json:"sources,omitempty"`
	}{Store: s.cfg.Store.Stats()}
	if s.cfg.EngineStats != nil {
		es := s.cfg.EngineStats()
		out.Engine = &es
	}
	if s.cfg.Aggregator != nil {
		cs := s.cfg.Aggregator.Stats()
		out.Cluster = &cs
	}
	out.Sources = s.sourceStats()
	writeJSON(w, http.StatusOK, out)
}

// clusterTree renders this node's view of the cluster: its own identity
// and upstream delivery leg, plus — when it assembles fragments — every
// child it has heard from, recursively, reconstructed from the hop
// provenance those fragments carry. Asking the root yields the whole
// tree; asking a merge tier yields its subtree; asking an ingest node
// yields a leaf with its forwarding stats. Cluster-wide counts are
// /v1/stats's, not repeated here.
func (s *server) clusterTree(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Node     string                  `json:"node,omitempty"`
		Role     string                  `json:"role"`
		Uptime   float64                 `json:"uptimeSeconds,omitempty"`
		Forward  *cluster.ForwarderStats `json:"forward,omitempty"`
		Children []cluster.TreeNode      `json:"children,omitempty"`
	}{Node: s.cfg.Node, Role: s.cfg.Role}
	if out.Role == "" {
		out.Role = "standalone"
	}
	if !s.cfg.Started.IsZero() {
		out.Uptime = time.Since(s.cfg.Started).Seconds()
	}
	if s.cfg.ForwarderStats != nil {
		fs := s.cfg.ForwarderStats()
		out.Forward = &fs
	}
	if s.cfg.Aggregator != nil {
		out.Children = s.cfg.Aggregator.Topology()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"status": "ok"}
	if !s.cfg.Started.IsZero() {
		out["uptimeSeconds"] = int(time.Since(s.cfg.Started) / time.Second)
	}
	writeJSON(w, http.StatusOK, out)
}

// registerCollectors puts the store's disk, history and event-stream
// gauges on the registry as scrape-time collectors — the store signals no
// JSON field carries. Counts live in /v1/stats and per-child rows in
// /v1/cluster, not here.
func registerCollectors(reg *obs.Registry, st *store.Store) {
	du := st.DiskUsage
	reg.GaugeFunc("smash_store_snapshot_bytes",
		"On-disk size of the store snapshot (0 when memory-only).",
		func(emit obs.Emit) { emit(float64(du().SnapshotBytes)) })
	reg.GaugeFunc("smash_store_wal_bytes",
		"Bytes of window history the snapshot does not cover yet, which a restart replays (0 when memory-only, drops to 0 at each snapshot).",
		func(emit obs.Emit) { emit(float64(du().WALBytes)) })
	reg.GaugeFunc("smash_history_bytes",
		"On-disk size of the window history log (0 when memory-only).",
		func(emit obs.Emit) { emit(float64(du().HistoryBytes)) })
	hs := st.HistoryStats
	reg.GaugeFunc("smash_history_windows",
		"Windows retained in the history log.",
		func(emit obs.Emit) { emit(float64(hs().Windows)) })
	reg.CounterFunc("smash_history_gc_runs_total",
		"Retention passes that garbage-collected history windows.",
		func(emit obs.Emit) { emit(float64(hs().GCRuns)) })
	reg.GaugeFunc("smash_sse_subscribers",
		"Live /v1/deltas event-stream subscriptions.",
		func(emit obs.Emit) { emit(float64(hs().Subscribers)) })
	reg.CounterFunc("smash_sse_dropped_total",
		"Event-stream subscriptions dropped for falling behind.",
		func(emit obs.Emit) { emit(float64(hs().Dropped)) })
}

// metrics renders the registry in Prometheus text exposition format.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// windowTrace serves one window's lifecycle spans from the tracer ring.
func (s *server) windowTrace(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseInt(r.PathValue("seq"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "window seq must be an integer")
		return
	}
	tr := s.cfg.Tracer.Trace(seq)
	if tr == nil {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("no trace for window %d (the ring keeps only recent windows)", seq))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
