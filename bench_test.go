// Benchmarks regenerating every experiment of the paper (see DESIGN.md's
// per-experiment index) plus microbenchmarks for the mining kernels and
// ablation benchmarks for the design choices. End-to-end and per-layer
// performance (ingest, windowing, pipeline, wire, store, cluster) is
// measured by bench/smashload, not here.
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
	"sync"
	"testing"

	"smash/internal/core"
	"smash/internal/eval"
	"smash/internal/graph"
	"smash/internal/similarity"
	"smash/internal/sparse"
	"smash/internal/stats"
	"smash/internal/synth"
	"smash/internal/trace"
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

// --- Overhead substrate: sparse product vs dense N² (§VI Overhead) --------

// denseClientPairs is the naive O(N²) baseline the paper's overhead section
// worries about: every server pair's client-set intersection.
func denseClientPairs(idx *trace.Index, minSim float64) int {
	keys := idx.Nodes().Names
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
