package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smash/internal/campaign"
	"smash/internal/cluster"
	"smash/internal/core"
	"smash/internal/correlate"
	"smash/internal/graph"
	"smash/internal/herd"
	"smash/internal/preprocess"
	"smash/internal/prune"
	"smash/internal/serve"
	"smash/internal/similarity"
	"smash/internal/source"
	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// The per-layer numbers come from a traced run that never touches smashd's
// source: the harness cranks one pass of the world through each layer's
// public functions on a single goroutine, with a span around every call.
// Detection layers are cranked over the pass's seven day windows — the
// window size every workload uses — and stream.window_only uses the
// workload's own stride. Each metric is the median of layerReps
// repetitions.

const layerReps = 3

// span is one timed call into a layer. Spans of one window share Window;
// Parent is the span that caused this one (-1 for none). graph.louvain and
// graph.subgraph_density name herd.mine_graph as their parent although
// they are timed by separate direct calls on the same graphs: MineGraph
// cannot be entered from outside.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	Window  int    `json:"window"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	// Events is the work the call covered (events, or 1 for a per-call
	// layer); Count is what it produced (edges, herds, bytes), if anything.
	Events int `json:"events"`
	Count  int `json:"count,omitempty"`
	// Allocs and Bytes are runtime.MemStats deltas around the call; 0 for
	// spans opened by the pipeline's stage observer.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	t0     time.Time
	spans  []span
	open   []int // ids of the spans currently open, innermost last
	rep    int
	window int
}

func (l *spanLog) begin(name string, events int) int {
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Rep: l.rep, Window: l.window, Events: events})
	l.open = append(l.open, id)
	l.spans[id].StartNs = time.Since(l.t0).Nanoseconds()
	return id
}

func (l *spanLog) end(id int) {
	l.spans[id].EndNs = time.Since(l.t0).Nanoseconds()
	l.open = l.open[:len(l.open)-1]
}

// call times fn as one span and charges it the allocations made meanwhile.
// The MemStats reads sit outside the span's own interval.
func (l *spanLog) call(name string, events int, fn func() (count int)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := l.begin(name, events)
	count := fn()
	l.end(id)
	runtime.ReadMemStats(&after)
	sp := &l.spans[id]
	sp.Count = count
	sp.Allocs = after.Mallocs - before.Mallocs
	sp.Bytes = after.TotalAlloc - before.TotalAlloc
}

// count records a count taken at a layer boundary as a zero-length span.
func (l *spanLog) count(name string, n int) {
	id := l.begin(name, 1)
	l.end(id)
	l.spans[id].Count = n
}

// stageSpans opens a span per pipeline stage from core's observer hooks.
type stageSpans struct {
	log    *spanLog
	events int
	id     int
}

func (o *stageSpans) StageStart(stage string, _ int) {
	o.id = o.log.begin("core.stage."+stage, o.events)
}
func (o *stageSpans) StageEnd(core.StageResult) { o.log.end(o.id) }

// spanSum totals the spans of one name in one repetition.
type spanSum struct {
	ns, events, calls, count float64
	allocs, bytes            float64
}

// layerKind says how a per-layer metric derives from a span's totals.
type layerKind func(spanSum) float64

var (
	nsPerEvent     layerKind = func(s spanSum) float64 { return s.ns / s.events }
	allocsPerEvent layerKind = func(s spanSum) float64 { return s.allocs / s.events }
	bytesPerEvent  layerKind = func(s spanSum) float64 { return s.bytes / s.events }
	usPerCall      layerKind = func(s spanSum) float64 { return s.ns / 1e3 / s.calls }
	countPerCall   layerKind = func(s spanSum) float64 { return s.count / s.calls }
	countPerEvent  layerKind = func(s spanSum) float64 { return s.count / s.events }
)

// layerMetric is a per-layer metric derived from spans.
type layerMetric struct {
	metric
	span string
	kind layerKind
}

func spanMetric(name, unit, span string, kind layerKind) layerMetric {
	return layerMetric{metric{Name: name, Unit: unit, Better: lower}, span, kind}
}

// timeAndAllocs declares span.ns_per_event and span.allocs_per_event.
func timeAndAllocs(span string) []layerMetric {
	return []layerMetric{
		spanMetric(span+".ns_per_event", "ns/event", span, nsPerEvent),
		spanMetric(span+".allocs_per_event", "allocs/event", span, allocsPerEvent),
	}
}

// spanMetrics lists the per-layer metrics computed from the span log, in
// pipeline order.
var spanMetrics = func() []layerMetric {
	var m []layerMetric
	add := func(ms ...layerMetric) { m = append(m, ms...) }
	// Ingest path.
	add(timeAndAllocs("source.parse_tsv")...)
	add(timeAndAllocs("trace.index_add")...)
	add(timeAndAllocs("stream.window_only")...)
	// Seal and merge.
	add(spanMetric("trace.merge_fold.ns_per_event", "ns/event", "trace.merge_fold", nsPerEvent))
	add(spanMetric("trace.merge_remap.ns_per_event", "ns/event", "trace.merge_remap", nsPerEvent))
	// Detection.
	add(timeAndAllocs("trace.index_clone")...)
	add(timeAndAllocs("preprocess.filter_idf")...)
	add(timeAndAllocs("similarity.client_graph")...)
	add(timeAndAllocs("similarity.file_graph")...)
	add(timeAndAllocs("similarity.ip_graph")...)
	add(spanMetric("similarity.edges_per_window", "count", "similarity.edges", countPerCall))
	add(timeAndAllocs("herd.mine_graph")...)
	add(spanMetric("graph.louvain.ns_per_event", "ns/event", "graph.louvain", nsPerEvent))
	add(spanMetric("graph.subgraph_density.ns_per_event", "ns/event", "graph.subgraph_density", nsPerEvent))
	add(spanMetric("herd.herds_per_window", "count", "herd.herds", countPerCall))
	add(spanMetric("correlate.correlate.ns_per_event", "ns/event", "correlate.correlate", nsPerEvent))
	add(spanMetric("prune.prune.ns_per_event", "ns/event", "prune.prune", nsPerEvent))
	add(spanMetric("campaign.infer.ns_per_event", "ns/event", "campaign.infer", nsPerEvent))
	add(timeAndAllocs("core.pipeline_run")...)
	add(spanMetric("core.pipeline_run.bytes_per_event", "B/event", "core.pipeline_run", bytesPerEvent))
	// Sinks.
	add(spanMetric("tracker.observe.us_per_window", "us/window", "tracker.observe", usPerCall))
	add(spanMetric("store.consume_mem.us_per_window", "us/window", "store.consume_mem", usPerCall))
	add(spanMetric("store.consume_wal.us_per_window", "us/window", "store.consume_wal", usPerCall))
	add(spanMetric("store.wal_bytes_per_window", "B/window", "store.consume_wal", countPerCall))
	// Cluster.
	add(timeAndAllocs("wire.encode_index")...)
	add(spanMetric("wire.decode_index.ns_per_event", "ns/event", "wire.decode_index", nsPerEvent))
	add(spanMetric("wire.bytes_per_event", "B/event", "wire.encode_index", countPerEvent))
	add(spanMetric("cluster.fraglog_append.us_per_fragment", "us/fragment", "cluster.fraglog_append", usPerCall))
	add(spanMetric("cluster.forward_post.us_per_fragment", "us/fragment", "cluster.forward_post", usPerCall))
	// Query plane.
	add(spanMetric("serve.metrics_render.us_per_request", "us/request", "serve.metrics_render", usPerCall))
	add(spanMetric("serve.lineages_query.us_per_request", "us/request", "serve.lineages_query", usPerCall))
	return m
}()

// detectionLayers are the hand-cranked spans that together redo what
// core.Pipeline.Run does; core.layer_coverage is their time over its.
var detectionLayers = []string{
	"trace.index_clone", "preprocess.filter_idf",
	"similarity.client_graph", "similarity.file_graph", "similarity.ip_graph",
	"herd.mine_graph", "herd.single_client", "correlate.correlate", "prune.prune", "campaign.infer",
}

// layerValues reduces the span log to the per-layer metrics: per
// repetition, each span name's totals; per metric, the median repetition.
func layerValues(spans []span) (values, error) {
	sums := make([]map[string]spanSum, layerReps)
	for i := range sums {
		sums[i] = make(map[string]spanSum)
	}
	for i := range spans {
		sp := &spans[i]
		s := sums[sp.Rep][sp.Name]
		s.ns += float64(sp.EndNs - sp.StartNs)
		s.events += float64(sp.Events)
		s.count += float64(sp.Count)
		s.allocs += float64(sp.Allocs)
		s.bytes += float64(sp.Bytes)
		s.calls++
		sums[sp.Rep][sp.Name] = s
	}
	v := values{}
	for _, m := range spanMetrics {
		reps := make([]float64, layerReps)
		for rep := range sums {
			s, ok := sums[rep][m.span]
			if !ok {
				return nil, fmt.Errorf("no %s span in repetition %d: a layer is missing from the trace", m.span, rep)
			}
			reps[rep] = m.kind(s)
		}
		v[m.Name] = median(reps)
	}
	coverage := make([]float64, layerReps)
	for rep := range sums {
		var layers float64
		for _, name := range detectionLayers {
			layers += sums[rep][name].ns
		}
		coverage[rep] = layers / sums[rep]["core.pipeline_run"].ns
	}
	v["core.layer_coverage"] = median(coverage)
	if v["core.layer_coverage"] < 0.9 {
		return v, fmt.Errorf("core.layer_coverage = %.3f: the cranked layers account for under 90%% of core.pipeline_run, a layer is missing from the trace",
			v["core.layer_coverage"])
	}
	return v, nil
}

// crankLayers runs layerReps repetitions of one pass through every layer
// and returns the span log. scratch is a directory for the WAL and the
// fragment log.
func crankLayers(ctx context.Context, wl *world, s *Spec, w *Workload, scratch string) ([]span, error) {
	sink := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		rw.WriteHeader(http.StatusAccepted)
	}))
	defer sink.Close()

	wl.retime(0)
	log := &spanLog{t0: time.Now(), window: -1}
	for rep := 0; rep < layerReps; rep++ {
		log.rep = rep
		dir := filepath.Join(scratch, fmt.Sprintf("rep%d", rep))
		if err := crankOnce(ctx, log, wl, s, w, dir, sink.URL); err != nil {
			return nil, err
		}
	}
	return log.spans, nil
}

func crankOnce(ctx context.Context, log *spanLog, wl *world, s *Spec, w *Workload, dir, sinkURL string) (err error) {
	n := wl.events()
	window := time.Duration(s.Daemon.Window)
	format, err := source.New("tsv", source.Options{})
	if err != nil {
		return err
	}

	// Ingest path: parse the rendered bytes back, in stream order.
	log.window = -1
	reqs := make([]trace.Request, n)
	var parseErr error
	log.call("source.parse_tsv", n, func() int {
		for k := range wl.parts {
			dec := source.NewDecoder(bytes.NewReader(wl.parts[k].tsv), format, nil)
			for _, e := range wl.parts[k].event {
				if reqs[e], parseErr = dec.Read(); parseErr != nil {
					return 0
				}
			}
		}
		return 0
	})
	if parseErr != nil {
		return fmt.Errorf("parse rendered world: %w", parseErr)
	}

	eng, err := stream.New(stream.Config{
		Window: window, Stride: time.Duration(w.Stride), Workers: 1, IndexOnly: true,
	})
	if err != nil {
		return err
	}
	log.call("stream.window_only", n, func() int {
		windows := 0
		for range eng.Start(&stream.SliceSource{Requests: reqs}) {
			windows++
		}
		return windows
	})
	if err := eng.Err(); err != nil {
		return err
	}

	// One index per day, sharing a symbol table as the engine's do.
	syms := trace.NewSymbols()
	days := make([]*trace.Index, len(wl.dayEnd))
	bounds := func(d int) (lo, hi int) {
		if d > 0 {
			lo = wl.dayEnd[d-1]
		}
		return lo, wl.dayEnd[d]
	}
	for d := range days {
		lo, hi := bounds(d)
		log.window = d
		log.call("trace.index_add", hi-lo, func() int {
			idx := trace.NewIndexWith(syms)
			for i := lo; i < hi; i++ {
				idx.Add(&reqs[i])
			}
			days[d] = idx
			return 0
		})
	}

	// Seal and merge. The engine's ring adopts a window's oldest stride
	// fragment and folds the newer ones in (shared symbols, integer
	// fold); the cluster's tiers combine fragments that each bring their
	// own symbols (name remap).
	const quarters = 4
	for d := range days {
		lo, hi := bounds(d)
		log.window = d
		frags := make([]*trace.Index, quarters)
		halves := []*trace.Index{trace.NewIndex(), trace.NewIndex()}
		for q := range frags {
			frags[q] = trace.NewIndexWith(syms)
		}
		for i := lo; i < hi; i++ {
			frags[(i-lo)*quarters/(hi-lo)].Add(&reqs[i])
			halves[cluster.PartitionOf(reqs[i].Client, len(halves))].Add(&reqs[i])
		}
		log.call("trace.merge_fold", hi-lo-frags[0].RequestCount, func() int {
			for _, f := range frags[1:] {
				frags[0].Merge(f)
			}
			return 0
		})
		log.call("trace.merge_remap", hi-lo, func() int {
			merged := trace.NewIndex()
			for _, h := range halves {
				merged.Merge(h)
			}
			return 0
		})
	}

	// Detection, sinks and the cluster's codec, window by window.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stMem, err := store.Open(store.Config{})
	if err != nil {
		return err
	}
	defer stMem.Close()
	stWAL, err := store.Open(store.Config{Dir: filepath.Join(dir, "state")})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stWAL.Close()) }()
	flog, err := cluster.OpenFragLog(filepath.Join(dir, "fragments"), false)
	if err != nil {
		return err
	}
	defer flog.Close()
	fwd, err := cluster.NewForwarder(cluster.ForwarderConfig{URL: sinkURL, Node: "shard0", Stride: window})
	if err != nil {
		return err
	}

	// smashd's own detector options, mining on one goroutine.
	const seed, idf = 1, preprocess.DefaultIDFThreshold
	pipe := core.NewPipeline(core.WithSeed(seed), core.WithIDFThreshold(idf),
		core.WithThreshold(correlate.DefaultThreshold), core.WithSingleClientThreshold(1.0),
		core.WithMiningWorkers(1))
	dims := []struct {
		span string
		herd.Dimension
	}{
		{"similarity.client_graph", herd.ClientDimension(similarity.Options{})},
		{"similarity.file_graph", herd.FileDimension(similarity.Options{})},
		{"similarity.ip_graph", herd.IPDimension(similarity.Options{})},
	}
	tk := tracker.New()

	for d, raw := range days {
		events := raw.RequestCount
		log.window = d
		start := time.Unix(0, wl.base+int64(d)*day).UTC()

		var report *core.Report
		var runErr error
		log.call("core.pipeline_run", events, func() int {
			report, runErr = pipe.Run(ctx, raw, raw.ComputeStats("layers"), &stageSpans{log: log, events: events})
			return 0
		})
		if runErr != nil {
			return fmt.Errorf("pipeline on day %d: %w", d, runErr)
		}

		// The same work again, one public function at a time.
		var idx *trace.Index
		log.call("trace.index_clone", events, func() int { idx = raw.Clone(); return 0 })
		log.call("preprocess.filter_idf", events, func() int { preprocess.FilterIDF(idx, idf); return 0 })
		mined := &herd.Result{
			MainDimension: dims[0].Name(),
			Secondary:     make(map[string][]herd.ASH),
			Graphs:        make(map[string]*similarity.ServerGraph),
		}
		edges, herds := 0, 0
		for i, dim := range dims {
			var sg *similarity.ServerGraph
			log.call(dim.span, events, func() int {
				sg = dim.Build(idx)
				return sg.G.EdgeCount()
			})
			edges += sg.G.EdgeCount()
			mined.Graphs[dim.Name()] = sg

			var found []herd.ASH
			mineID := len(log.spans)
			log.call("herd.mine_graph", events, func() int {
				found = herd.MineGraph(dim.Name(), sg, seed)
				return len(found)
			})
			herds += len(found)
			if i == 0 {
				log.call("herd.single_client", events, func() int {
					found = append(found, herd.SingleClientASHes(dim.Name(), idx, len(found))...)
					return len(found)
				})
				mined.Main = found
			} else {
				mined.Secondary[dim.Name()] = found
			}

			// MineGraph's two halves, by direct calls on the same graph.
			log.open = append(log.open, mineID)
			var labels []int
			log.call("graph.louvain", events, func() int { labels = sg.G.Louvain(seed); return 0 })
			log.call("graph.subgraph_density", events, func() int {
				dense := 0
				for _, members := range graph.Communities(labels) {
					if len(members) >= 2 && sg.G.SubgraphDensity(members) > 0 {
						dense++
					}
				}
				return dense
			})
			log.open = log.open[:len(log.open)-1]
		}
		log.count("similarity.edges", edges)
		log.count("herd.herds", herds)

		var corr *correlate.Result
		log.call("correlate.correlate", events, func() int {
			corr = correlate.Correlate(mined, correlate.Options{Threshold: correlate.DefaultThreshold})
			return len(corr.Herds)
		})
		var pruned []prune.PrunedASH
		log.call("prune.prune", events, func() int {
			pruned, _ = prune.Prune(corr.Herds, idx, prune.Options{})
			return len(pruned)
		})
		var campaigns []campaign.Campaign
		log.call("campaign.infer", events, func() int {
			campaigns = campaign.Infer(pruned, idx)
			campaign.Classify(campaigns, idx, 0.5)
			return len(campaigns)
		})
		// The cranked layers must arrive where the pipeline did.
		if got, want := len(campaigns), len(report.Campaigns)+len(report.SingleClientCampaigns); got < want {
			return fmt.Errorf("day %d: cranked layers inferred %d campaigns, core.Pipeline.Run reported %d", d, got, want)
		}

		// Sinks, as the engine's emit path runs them.
		res := stream.WindowResult{Seq: d, Start: start, End: start.Add(window), Requests: events, Report: report}
		log.call("tracker.observe", 1, func() int {
			res.Matches = tk.Observe(report)
			return len(res.Matches)
		})
		res.Deltas = stream.DeltasFor(d, report.AllCampaigns(), res.Matches)
		var sinkErr error
		log.call("store.consume_mem", 1, func() int { sinkErr = stMem.Consume(&res); return 0 })
		walBefore := stWAL.DiskUsage().WALBytes
		log.call("store.consume_wal", 1, func() int {
			sinkErr = errors.Join(sinkErr, stWAL.Consume(&res))
			return 0
		})
		log.spans[len(log.spans)-1].Count = int(stWAL.DiskUsage().WALBytes - walBefore)

		// The cluster's codec and delivery legs.
		var enc []byte
		log.call("wire.encode_index", events, func() int { enc = wire.EncodeIndex(raw); return len(enc) })
		log.call("wire.decode_index", events, func() int {
			_, decErr := wire.DecodeIndex(enc)
			sinkErr = errors.Join(sinkErr, decErr)
			return 0
		})
		frag := &wire.Fragment{
			Node: "shard0", Window: cluster.WindowID(start, window),
			Start: start, End: start.Add(window), Index: raw,
		}
		log.call("cluster.fraglog_append", 1, func() int { sinkErr = errors.Join(sinkErr, flog.Append(frag)); return 0 })
		flog.Remove(frag.Window)
		log.call("cluster.forward_post", 1, func() int {
			sinkErr = errors.Join(sinkErr, fwd.Consume(&stream.WindowResult{
				Seq: d, Start: start, End: start.Add(window), Requests: events, Index: raw,
			}))
			return 0
		})
		if sinkErr != nil {
			return fmt.Errorf("day %d sinks: %w", d, sinkErr)
		}
	}

	// Query plane: it shares the store's lock with the sink.
	log.window = -1
	handler := serve.NewHandler(serve.Config{Store: stMem})
	for _, q := range []struct{ span, path string }{
		{"serve.metrics_render", "/metrics"},
		{"serve.lineages_query", "/v1/lineages"},
	} {
		for i := 0; i < 20; i++ {
			rec := httptest.NewRecorder()
			log.call(q.span, 1, func() int {
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.path, nil))
				return rec.Body.Len()
			})
			if rec.Code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", q.path, rec.Code)
			}
		}
	}
	return nil
}

// writeSpans writes the span log as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
