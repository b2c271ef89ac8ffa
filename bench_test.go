// Benchmarks regenerating every experiment of the paper (see DESIGN.md's
// per-experiment index) plus microbenchmarks for the performance substrate
// and ablation benchmarks for the design choices.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// World generation is amortized across iterations (sync.Once); each
// iteration re-runs the pipeline/evaluation under measurement. Ablation
// benchmarks additionally report recall/fp metrics via b.ReportMetric.
package smash_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"smash/internal/campaign"
	"smash/internal/cluster"
	"smash/internal/core"
	"smash/internal/eval"
	"smash/internal/graph"
	"smash/internal/obs"
	"smash/internal/similarity"
	"smash/internal/sparse"
	"smash/internal/stats"
	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/synth"
	"smash/internal/trace"
	"smash/internal/wire"
)

// benchScale keeps bench iterations around a second; raise for full-scale
// reproduction runs.
const (
	benchClients = 500
	benchServers = 1500
	benchSeed    = 42
)

var (
	benchOnce sync.Once
	dayWorld  *synth.World
	day2World *synth.World
	weekWorld *synth.World
	benchErr  error
)

func benchWorlds(b *testing.B) (*synth.World, *synth.World, *synth.World) {
	b.Helper()
	benchOnce.Do(func() {
		mk := func(name string, seed int64, days int) (*synth.World, error) {
			return synth.Generate(synth.Config{
				Name: name, Seed: seed, Days: days,
				Clients: benchClients, BenignServers: benchServers, MeanRequests: 25,
			})
		}
		if dayWorld, benchErr = mk("Data2011day", benchSeed, 1); benchErr != nil {
			return
		}
		if day2World, benchErr = mk("Data2012day", benchSeed+1, 1); benchErr != nil {
			return
		}
		weekWorld, benchErr = mk("Data2012week", benchSeed+2, 7)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return dayWorld, day2World, weekWorld
}

// --- Table and figure reproduction benches -------------------------------

func BenchmarkTableI(b *testing.B) {
	w1, w2, wk := benchWorlds(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := eval.TableI(eval.NewEnvFromWorld(w1), eval.NewEnvFromWorld(w2), eval.NewEnvFromWorld(wk))
		if out == "" {
			b.Fatal("empty table")
		}
	}
}

func benchTable(b *testing.B, fn func(e *eval.Env) (*eval.Table, error)) {
	w1, _, _ := benchWorlds(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := fn(eval.NewEnvFromWorld(w1))
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	benchTable(b, func(e *eval.Env) (*eval.Table, error) { return eval.TableII(e) })
}
func BenchmarkTableIII(b *testing.B) {
	benchTable(b, func(e *eval.Env) (*eval.Table, error) { return eval.TableIII(e) })
}
func BenchmarkTableIV(b *testing.B) { benchTable(b, eval.TableIV) }
func BenchmarkTableXI(b *testing.B) {
	benchTable(b, func(e *eval.Env) (*eval.Table, error) { return eval.TableXI(e) })
}
func BenchmarkTableXII(b *testing.B) {
	benchTable(b, func(e *eval.Env) (*eval.Table, error) { return eval.TableXII(e) })
}

func BenchmarkTableV(b *testing.B) {
	_, _, wk := benchWorlds(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := eval.TableV(eval.NewEnvFromWorld(wk))
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

func BenchmarkTableVI(b *testing.B) {
	_, _, wk := benchWorlds(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.TableVI(eval.NewEnvFromWorld(wk)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	w1, _, _ := benchWorlds(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.BuildFigure6(eval.NewEnvFromWorld(w1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	_, _, wk := benchWorlds(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.BuildFigure7(eval.NewEnvFromWorld(wk)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	w1, _, _ := benchWorlds(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.BuildFigure8(eval.NewEnvFromWorld(w1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	w1, _, _ := benchWorlds(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.BuildFigure9(eval.NewEnvFromWorld(w1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	w1, _, _ := benchWorlds(b)
	for i := 0; i < b.N; i++ {
		if _, err := eval.BuildFigure10(eval.NewEnvFromWorld(w1)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCase(b *testing.B, name string) {
	w1, _, _ := benchWorlds(b)
	for i := 0; i < b.N; i++ {
		cs, err := eval.BuildCaseStudy(eval.NewEnvFromWorld(w1), name)
		if err != nil {
			b.Fatal(err)
		}
		if cs.Active == 0 {
			b.Fatalf("campaign %s inactive", name)
		}
	}
}

func BenchmarkCaseBagle(b *testing.B)  { benchCase(b, "bagle") }
func BenchmarkCaseSality(b *testing.B) { benchCase(b, "sality") }
func BenchmarkCaseIframe(b *testing.B) { benchCase(b, "iframe-inject") }
func BenchmarkCaseZeus(b *testing.B)   { benchCase(b, "zeus") }

// --- End-to-end pipeline scaling ------------------------------------------

func BenchmarkPipeline(b *testing.B) {
	for _, size := range []struct {
		name             string
		clients, servers int
	}{
		{"small", 250, 800},
		{"medium", 500, 1500},
		{"large", 1000, 3500},
	} {
		b.Run(size.name, func(b *testing.B) {
			world, err := synth.Generate(synth.Config{
				Name: "scale", Seed: benchSeed,
				Clients: size.clients, BenignServers: size.servers, MeanRequests: 25,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det := core.NewPipeline(core.WithSeed(1), core.WithWhois(world.Whois), core.WithProber(world.Prober))
				if _, err := det.RunTrace(context.Background(), world.Trace()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineParallelMining compares sequential dimension mining
// (1 worker) against the full fan-out (NumCPU workers) on one day trace —
// the speedup the staged pipeline's WithMiningWorkers buys. Reports are
// identical for any worker count (see TestParallelMiningEquivalence).
func BenchmarkPipelineParallelMining(b *testing.B) {
	world, _, _ := benchWorlds(b)
	tr := world.Trace()
	raw, stats := trace.BuildIndex(tr), tr.ComputeStats()
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			det := core.NewPipeline(
				core.WithSeed(1),
				core.WithWhois(world.Whois),
				core.WithProber(world.Prober),
				core.WithMiningWorkers(workers),
			)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Run(context.Background(), raw, stats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamThroughput measures sustained events/sec through the full
// streaming path: bounded ingestion, sharded incremental indexing, window
// sealing, and windowed detection on a worker pool. The week world is
// replayed as one continuous stream, once as 1-day tumbling windows and
// once as sliding windows (24h window, 6h stride) where each event belongs
// to four overlapping windows — the configuration that exercises the
// stride-fragment ring.
func BenchmarkStreamThroughput(b *testing.B) {
	_, _, wk := benchWorlds(b)
	var events []trace.Request
	for _, day := range wk.Days {
		events = append(events, day.Requests...)
	}
	for _, mode := range []struct {
		name    string
		stride  time.Duration
		minWins int
	}{
		{"tumbling", 0, len(wk.Days)},
		{"sliding", 6 * time.Hour, len(wk.Days)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := stream.New(stream.Config{
					Window:  24 * time.Hour,
					Stride:  mode.stride,
					Workers: runtime.GOMAXPROCS(0),
					Detector: []core.Option{
						core.WithSeed(1), core.WithWhois(wk.Whois), core.WithProber(wk.Prober),
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				windows := 0
				for range eng.Start(&stream.SliceSource{Requests: events}) {
					windows++
				}
				if err := eng.Err(); err != nil {
					b.Fatal(err)
				}
				if windows < mode.minWins {
					b.Fatalf("windows = %d, want >= %d", windows, mode.minWins)
				}
			}
			b.StopTimer()
			perSec := float64(b.N) * float64(len(events)) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "events/s")
		})
	}
}

// BenchmarkObsOverhead is BenchmarkStreamThroughput/tumbling with the full
// observability plane wired in — metrics registry, window tracer and a
// discard slog logger — so diffing the two events/s figures bounds the
// instrumentation cost on the hot streaming path.
func BenchmarkObsOverhead(b *testing.B) {
	_, _, wk := benchWorlds(b)
	var events []trace.Request
	for _, day := range wk.Days {
		events = append(events, day.Requests...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		eng, err := stream.New(stream.Config{
			Window:  24 * time.Hour,
			Workers: runtime.GOMAXPROCS(0),
			Detector: []core.Option{
				core.WithSeed(1), core.WithWhois(wk.Whois), core.WithProber(wk.Prober),
			},
			Metrics: reg,
			Tracer:  obs.NewTracer(0),
			Logger:  obs.Discard(),
		})
		if err != nil {
			b.Fatal(err)
		}
		windows := 0
		for range eng.Start(&stream.SliceSource{Requests: events}) {
			windows++
		}
		if err := eng.Err(); err != nil {
			b.Fatal(err)
		}
		if windows < len(wk.Days) {
			b.Fatalf("windows = %d, want >= %d", windows, len(wk.Days))
		}
	}
	b.StopTimer()
	perSec := float64(b.N) * float64(len(events)) / b.Elapsed().Seconds()
	b.ReportMetric(perSec, "events/s")
}

// --- Durability: campaign-state store append and restore ------------------

// benchWindowResult fabricates one window's result with churning campaign
// membership, the shape the store persists per window.
func benchWindowResult(seq int) *stream.WindowResult {
	report := &core.Report{}
	for c := 0; c < 4; c++ {
		camp := campaign.Campaign{ID: c, Kind: campaign.KindCommunication}
		for s := 0; s < 12; s++ {
			camp.Servers = append(camp.Servers, fmt.Sprintf("srv-%d-%d.test", c, (seq+s)%40))
		}
		for cl := 0; cl < 25; cl++ {
			camp.Clients = append(camp.Clients, fmt.Sprintf("client-%d-%d", c, cl))
		}
		report.Campaigns = append(report.Campaigns, camp)
	}
	base := time.Date(2020, 9, 13, 0, 0, 0, 0, time.UTC)
	return &stream.WindowResult{
		Seq:      seq,
		Start:    base.AddDate(0, 0, seq),
		End:      base.AddDate(0, 0, seq+1),
		Requests: 5000,
		Report:   report,
	}
}

// BenchmarkStoreAppend measures the per-window durability cost of the
// campaign-state store — mirror apply only (memory), plus WAL append, plus
// fsync — including the periodic snapshot+compaction at the default
// cadence.
func BenchmarkStoreAppend(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  func(b *testing.B) store.Config
	}{
		{"memory", func(b *testing.B) store.Config { return store.Config{} }},
		{"wal", func(b *testing.B) store.Config { return store.Config{Dir: b.TempDir()} }},
		{"wal-fsync", func(b *testing.B) store.Config { return store.Config{Dir: b.TempDir(), Sync: true} }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(mode.cfg(b))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Consume(benchWindowResult(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistorySink measures the analytics history log's per-window
// cost — the extra tmp+rename file write Consume performs after the WAL
// append — and what retention GC adds (and saves) when the log is kept
// bounded. "unbounded" grows one file per window; "retain64"/"retain8"
// cap the log, deleting the oldest file(s) as new windows land.
func BenchmarkHistorySink(b *testing.B) {
	for _, mode := range []struct {
		name   string
		retain int
	}{
		{"unbounded", 0},
		{"retain64", 64},
		{"retain8", 8},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(store.Config{Dir: b.TempDir(), RetainWindows: mode.retain})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Consume(benchWindowResult(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if hs := st.HistoryStats(); mode.retain > 0 && hs.Windows > mode.retain {
				b.Fatalf("retention failed: %d windows retained", hs.Windows)
			}
		})
	}
}

// BenchmarkRestore measures recovery: reopening a state directory holding
// benchRestoreWindows windows, either as a pure WAL replay (the kill -9
// path) or from a clean snapshot (the graceful-shutdown path).
func BenchmarkRestore(b *testing.B) {
	const benchRestoreWindows = 256
	for _, mode := range []struct {
		name  string
		clean bool // Close before reopening: snapshot, empty WAL
	}{
		{"wal-replay", false},
		{"snapshot", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := store.Config{Dir: b.TempDir(), SnapshotEvery: 1 << 30}
				st, err := store.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for w := 0; w < benchRestoreWindows; w++ {
					if err := st.Consume(benchWindowResult(w)); err != nil {
						b.Fatal(err)
					}
				}
				if mode.clean {
					if err := st.Close(); err != nil {
						b.Fatal(err)
					}
				} else {
					st.Abandon() // the kill -9 analogue
				}
				b.StartTimer()

				st2, err := store.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tk := st2.Restore()
				b.StopTimer()
				if tk.Day() != benchRestoreWindows {
					b.Fatalf("restored %d windows, want %d", tk.Day(), benchRestoreWindows)
				}
				if err := st2.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// --- Overhead substrate: sparse product vs dense N² (§VI Overhead) --------

// denseClientPairs is the naive O(N²) baseline the paper's overhead section
// worries about: every server pair's client-set intersection.
func denseClientPairs(idx *trace.Index, minSim float64) int {
	keys := idx.ServerKeys()
	edges := 0
	for i := 0; i < len(keys); i++ {
		ci := idx.Servers[keys[i]].Clients
		for j := i + 1; j < len(keys); j++ {
			cj := idx.Servers[keys[j]].Clients
			inter := 0
			small, big := ci, cj
			if len(cj) < len(ci) {
				small, big = cj, ci
			}
			for c := range small {
				if _, ok := big[c]; ok {
					inter++
				}
			}
			if similarity.SetSim(inter, len(ci), len(cj)) >= minSim {
				edges++
			}
		}
	}
	return edges
}

func BenchmarkSimilaritySparse(b *testing.B) {
	w1, _, _ := benchWorlds(b)
	idx := trace.BuildIndex(w1.Trace())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg := similarity.BuildClientGraph(idx, similarity.Options{})
		if sg.G.N() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkSimilarityDense(b *testing.B) {
	w1, _, _ := benchWorlds(b)
	idx := trace.BuildIndex(w1.Trace())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if denseClientPairs(idx, similarity.DefaultClientMinSimilarity) < 0 {
			b.Fatal("impossible")
		}
	}
}

// --- Microbenchmarks -------------------------------------------------------

func BenchmarkLouvain(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := stats.NewRand(1, "bench-louvain")
			g := graph.New(n)
			// Planted partition: 20 communities with dense intra edges.
			for i := 0; i < 8*n; i++ {
				c := rng.Intn(20)
				lo, hi := c*n/20, (c+1)*n/20
				u, v := lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo)
				if u != v {
					_ = g.AddEdge(u, v, 1)
				}
			}
			for i := 0; i < n/2; i++ { // sparse inter-community noise
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					_ = g.AddEdge(u, v, 0.3)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				labels := g.Louvain(7)
				if len(labels) != n {
					b.Fatal("bad labels")
				}
			}
		})
	}
}

func BenchmarkCoOccurrence(b *testing.B) {
	rng := stats.NewRand(2, "bench-cooc")
	inc := sparse.NewIncidence(3000)
	for r := 0; r < 3000; r++ {
		for k := 0; k < 20; k++ {
			inc.Set(r, uint64(rng.Intn(2000)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := 0
		inc.CoOccurrence(500, func(_ int, partners, _ []int32) { pairs += len(partners) })
		if pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkServerFileSim(b *testing.B) {
	filesA := []string{"login.php", "news.php", "a1b2c3d4e5f6g7h8i9j0k1l2m3n4.php", "x.gif"}
	filesB := []string{"login.php", "4n3m2l1k0j9i8h7g6f5e4d3c2b1a.php", "y.gif"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		similarity.ServerFileSim(filesA, filesB, 25, 0.8)
	}
}

func BenchmarkSigma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.Sigma(float64(i%40), stats.DefaultMu, stats.DefaultBeta)
	}
}

// --- Ablations --------------------------------------------------------------

// ablationMetrics runs the detector with extra options and reports recall
// over ground truth and false-positive counts as benchmark metrics.
func ablationMetrics(b *testing.B, opts ...core.Option) {
	w1, _, _ := benchWorlds(b)
	all := append([]core.Option{
		core.WithSeed(1), core.WithWhois(w1.Whois), core.WithProber(w1.Prober),
	}, opts...)
	var recall, fps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := core.NewPipeline(all...)
		report, err := det.RunTrace(context.Background(), w1.Trace())
		if err != nil {
			b.Fatal(err)
		}
		detected := make(map[string]bool)
		for _, c := range report.AllCampaigns() {
			for _, s := range c.Servers {
				detected[s] = true
			}
		}
		truth, found, fp := 0, 0, 0
		for s := range detected {
			st, ok := w1.Truth.Servers[s]
			if !ok || (st.Campaign == "" && !st.Noise) {
				fp++
			}
		}
		for s, st := range w1.Truth.Servers {
			if st.Campaign == "" || st.Noise {
				continue
			}
			if _, active := report.RawIndex.Servers[s]; !active {
				continue
			}
			truth++
			if detected[s] {
				found++
			}
		}
		if truth > 0 {
			recall = float64(found) / float64(truth)
		}
		fps = float64(fp)
	}
	b.ReportMetric(recall, "recall")
	b.ReportMetric(fps, "falsepos")
}

// BenchmarkAblationFull is the reference configuration.
func BenchmarkAblationFull(b *testing.B) { ablationMetrics(b) }

// BenchmarkAblationNoWhois drops the whois dimension (DESIGN.md: whois and
// IP individually weak but confirm URI-file herds).
func BenchmarkAblationNoWhois(b *testing.B) {
	ablationMetrics(b, core.WithoutWhoisDimension())
}

// BenchmarkAblationStrictSigma moves the sigma midpoint from 4 to 8,
// requiring larger herd intersections.
func BenchmarkAblationStrictSigma(b *testing.B) {
	ablationMetrics(b, core.WithSigma(8, 5.5))
}

// BenchmarkAblationHighThreshold operates at the paper's strictest
// threshold (1.5) where FPs vanish but recall drops.
func BenchmarkAblationHighThreshold(b *testing.B) {
	ablationMetrics(b, core.WithThreshold(1.5), core.WithSingleClientThreshold(1.5))
}

// BenchmarkAblationDenseEdges raises the similarity edge cutoff to 0.25,
// the design alternative rejected in DESIGN.md (herd densities collapse).
func BenchmarkAblationDenseEdges(b *testing.B) {
	ablationMetrics(b, core.WithSimilarityOptions(similarity.Options{MinSimilarity: 0.25}))
}

// BenchmarkAblationNoIDF disables the popularity filter (preprocessing
// trade-off of §III-A).
func BenchmarkAblationNoIDF(b *testing.B) {
	ablationMetrics(b, core.WithIDFThreshold(1<<30))
}

// BenchmarkAblationComponents swaps Louvain for connected components: weak
// bridges then merge herds, densities collapse, and recall falls — the
// ablation motivating the paper's community-detection choice.
func BenchmarkAblationComponents(b *testing.B) {
	ablationMetrics(b, core.WithComponentMining())
}

// --- Cluster: wire codec -------------------------------------------------

// BenchmarkWireCodec measures the cluster interchange codec over one
// day-scale index: a full encode (canonical dictionary build + count
// maps) followed by a full decode (fresh symbols + index rebuild), the
// per-window cost an ingest node and the aggregator pay between them.
// events/s is the request volume the codec round-trips per second;
// bytes/op is the encoded fragment size.
func BenchmarkWireCodec(b *testing.B) {
	w1, _, _ := benchWorlds(b)
	idx := trace.BuildIndex(w1.Days[0])
	encoded := wire.EncodeIndex(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := wire.EncodeIndex(idx)
		dec, err := wire.DecodeIndex(enc)
		if err != nil {
			b.Fatal(err)
		}
		if dec.RequestCount != idx.RequestCount {
			b.Fatal("lossy round-trip")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(idx.RequestCount)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(len(encoded)), "bytes/fragment")
}

// --- Cluster: crash recovery ---------------------------------------------

// clusterBenchFragments splits the bench week across nodes×windows wire
// fragments, the shape a fault-tolerant aggregator logs and replays: each
// day is one window, each node holds its client-hash partition of it.
func clusterBenchFragments(b *testing.B, nodes int) []*wire.Fragment {
	b.Helper()
	_, _, week := benchWorlds(b)
	var frags []*wire.Fragment
	for day, tr := range week.Days {
		parts := make([]*trace.Index, nodes)
		for i := range parts {
			parts[i] = trace.NewIndex()
		}
		for i := range tr.Requests {
			r := &tr.Requests[i]
			parts[cluster.PartitionOf(r.Client, nodes)].Add(r)
		}
		start := cluster.WindowStart(int64(day), 24*time.Hour)
		for i, idx := range parts {
			frags = append(frags, &wire.Fragment{
				Node: fmt.Sprintf("node-%d", i), Window: int64(day),
				Start: start, End: start.Add(24 * time.Hour), Index: idx,
			})
		}
	}
	return frags
}

// BenchmarkFragmentLogAppend measures the durable-ack hot path: encoding
// one day-partition fragment into a length-prefixed frame and appending
// it to the per-window fragment log (no fsync, the default for the
// aggregator's WAL). This cost sits on every /v1/ingest request once
// crash recovery is enabled, so it bounds cluster intake throughput.
func BenchmarkFragmentLogAppend(b *testing.B) {
	frags := clusterBenchFragments(b, 4)
	frag := frags[0]
	flog, err := cluster.OpenFragLog(b.TempDir(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer flog.Close()
	encoded := wire.EncodeFragment(frag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flog.Append(frag); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			flog.Remove(frag.Window) // keep the bench dir bounded
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(frag.Index.RequestCount)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(len(encoded)), "bytes/fragment")
}

// BenchmarkAggregatorReplay measures crash-recovery startup: an
// aggregator resuming from a fragment log holding a week of 4-node
// traffic (28 fragments) — open with torn-tail scan, decode every frame,
// and rebuild the in-memory window state through the normal accept path.
// This is the downtime a crashed aggregator adds before serving again.
func BenchmarkAggregatorReplay(b *testing.B) {
	frags := clusterBenchFragments(b, 4)
	dir := b.TempDir()
	flog, err := cluster.OpenFragLog(dir, false)
	if err != nil {
		b.Fatal(err)
	}
	var events int
	for _, f := range frags {
		if err := flog.Append(f); err != nil {
			b.Fatal(err)
		}
		events += f.Index.RequestCount
	}
	flog.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Expect one node more than ever reports so no window seals:
		// the measurement isolates replay from detection.
		agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
			Window: 24 * time.Hour, Expect: 5, FragDir: dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		results := agg.Start(context.Background())
		agg.Abandon() // stop right after resume, leaving the log intact
		for range results {
		}
		if got := agg.Stats().Replayed; got != len(frags) {
			b.Fatalf("replayed %d fragments, want %d", got, len(frags))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(events)/b.Elapsed().Seconds(), "events/s")
}

// --- Cluster: hop provenance ----------------------------------------------

// BenchmarkHopEncode measures stamping one transit hop onto an
// already-encoded day-scale fragment — the per-attempt cost a forwarder
// pays on the delivery hot path. AppendHop is a pure byte append (no
// re-encode), so this must stay orders of magnitude below the codec's
// per-fragment cost no matter how large the index payload grows.
func BenchmarkHopEncode(b *testing.B) {
	frags := clusterBenchFragments(b, 4)
	encoded := wire.EncodeFragment(frags[0])
	hop := wire.Hop{
		Node: "node-0", Role: "ingest",
		Send: time.Unix(1315872000, 0).UTC(), Attempts: 1,
	}
	buf := make([]byte, len(encoded), len(encoded)+64)
	copy(buf, encoded)
	b.ReportAllocs()
	b.ResetTimer()
	var hopBytes int
	for i := 0; i < b.N; i++ {
		out := wire.AppendHop(buf[:len(encoded)], hop)
		hopBytes = len(out) - len(encoded)
	}
	b.StopTimer()
	b.ReportMetric(float64(hopBytes), "bytes/hop")
	b.ReportMetric(float64(len(encoded)), "bytes/fragment")
}

// BenchmarkForwarderTracing is the tracing-overhead A/B: one day-partition
// fragment delivered over loopback HTTP with hop provenance stamped
// (hops) versus stripped (nohops). The two must agree within noise — the
// acceptance bar for leaving tracing on in production clusters.
func BenchmarkForwarderTracing(b *testing.B) {
	frags := clusterBenchFragments(b, 4)
	idx := frags[0].Index
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"hops", false}, {"nohops", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				w.WriteHeader(http.StatusAccepted)
			}))
			defer ts.Close()
			fwd, err := cluster.NewForwarder(cluster.ForwarderConfig{
				URL: ts.URL, Node: "node-0", Stride: 24 * time.Hour,
				DisableHops: mode.disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			start := cluster.WindowStart(0, 24*time.Hour)
			w := &stream.WindowResult{
				Start: start, End: start.Add(24 * time.Hour),
				Requests: idx.RequestCount, Index: idx,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fwd.Consume(w); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(idx.RequestCount)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
