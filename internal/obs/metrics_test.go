package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// quantile tolerance: one bucket growth factor (2^(1/4) ≈ 1.19) on either
// side of the exact order statistic, with a little float headroom.
const quantileTol = 1.27

// oracle computes the exact order statistic the histogram approximates.
func oracle(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func checkQuantiles(t *testing.T, name string, values []float64) {
	t.Helper()
	h := &Histogram{}
	for _, v := range values {
		h.Observe(v)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := oracle(sorted, q)
		got := h.Quantile(q)
		lo, hi := want/quantileTol, want*quantileTol
		if got < lo || got > hi {
			t.Errorf("%s: p%g = %g, want within [%g, %g] of oracle %g",
				name, q*100, got, lo, hi, want)
		}
	}
}

// TestHistogramQuantilesVsOracle checks p50/p90/p99 against a
// sorted-slice oracle across distributions spanning microseconds to
// minutes.
func TestHistogramQuantilesVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 20000

	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1e-5 + rng.Float64()*0.5 // 10µs .. 500ms
	}
	checkQuantiles(t, "uniform", uniform)

	exponential := make([]float64, n)
	for i := range exponential {
		exponential[i] = 1e-4 * rng.ExpFloat64() // mean 100µs, long tail
	}
	checkQuantiles(t, "exponential", exponential)

	lognormal := make([]float64, n)
	for i := range lognormal {
		lognormal[i] = math.Exp(rng.NormFloat64()*1.5 - 6) // median ~2.5ms
	}
	checkQuantiles(t, "lognormal", lognormal)

	bimodal := make([]float64, n)
	for i := range bimodal {
		if i%10 == 0 {
			bimodal[i] = 2 + rng.Float64() // slow mode: seconds
		} else {
			bimodal[i] = 1e-4 + rng.Float64()*1e-3
		}
	}
	checkQuantiles(t, "bimodal", bimodal)
}

func TestHistogramEdgeCases(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", got)
	}
	h.Observe(-1)         // dropped
	h.Observe(math.NaN()) // dropped
	if h.Count() != 0 {
		t.Errorf("count after invalid observes = %d", h.Count())
	}
	h.Observe(0) // clamps into the first bucket
	if got := h.Quantile(0.5); got != histMin {
		t.Errorf("p50 of a zero observation = %g, want %g", got, histMin)
	}
	h.Observe(1e9) // past the last bound: +Inf bucket
	if got := h.Quantile(1); got != histBounds[histBuckets-1] {
		t.Errorf("p100 of overflow = %g, want last bound %g", got, histBounds[histBuckets-1])
	}
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
}

// TestNilInstrumentsAreNoOps: every instrument must be callable through a
// nil pointer so unwired components pay only a nil check.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram")
	}
	var tr *Tracer
	tr.Window(0, time.Time{}, time.Time{})
	tr.Record(0, "x", time.Now(), time.Second)
	tr.StartSpan(0, "x")()
	tr.LogTo(nil)
	if tr.Trace(0) != nil || tr.Recent() != nil {
		t.Error("nil tracer")
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("smash_test_total", "A test counter.", func(emit Emit) { emit(3) })
	r.CounterFunc("smash_test_labeled_total", "A labeled counter.", func(emit Emit) {
		emit(1, "kind", "a")
		emit(2, "kind", "b")
	})
	r.GaugeFunc("smash_test_gauge", "A gauge.", func(emit Emit) { emit(0.25) })
	r.Histogram("smash_test_seconds", "A histogram.").Observe(0.004)
	r.GaugeFunc("smash_test_func", "A collector.", func(emit Emit) {
		emit(7, "node", "n0")
		emit(9, "node", "n1")
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"# HELP smash_test_total A test counter.\n",
		"# TYPE smash_test_total counter\n",
		"smash_test_total 3\n",
		`smash_test_labeled_total{kind="a"} 1`,
		`smash_test_labeled_total{kind="b"} 2`,
		"smash_test_gauge 0.25\n",
		"# TYPE smash_test_seconds histogram\n",
		`smash_test_seconds_bucket{le="+Inf"} 1`,
		"smash_test_seconds_sum 0.004\n",
		"smash_test_seconds_count 1\n",
		`smash_test_func{node="n0"} 7`,
		`smash_test_func{node="n1"} 9`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("render missing %q in:\n%s", want, body)
		}
	}
	// Families render in name order, HELP before TYPE before samples.
	if strings.Index(body, "smash_test_gauge") > strings.Index(body, "smash_test_total") {
		t.Error("families not sorted by name")
	}
}

func TestRegistryIdempotentSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("smash_same_seconds", "h", "k", "v")
	b := r.Histogram("smash_same_seconds", "h", "k", "v")
	if a != b {
		t.Error("same name+labels must return the same series")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict must panic")
		}
	}()
	r.GaugeFunc("smash_same_seconds", "h", func(Emit) {})
}

// TestRegistryRace hammers one registry with concurrent observes, series
// registrations and scrapes; run under -race this is the registry's
// data-race proof.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var c atomic.Int64
	r.CounterFunc("smash_race_total", "h", func(emit Emit) { emit(float64(c.Load())) })
	h := r.Histogram("smash_race_seconds", "h")
	RegisterRuntimeMetrics(r)

	var writers, scrapers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 5000; j++ {
				c.Add(1)
				h.Observe(rng.Float64())
				// New labeled series mid-scrape exercise family locking.
				r.Histogram("smash_race_labeled_seconds", "h", "w", string(rune('a'+seed))).Observe(1)
			}
		}(int64(i))
	}
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()
	if c.Load() != 4*5000 {
		t.Errorf("counter = %d, want %d", c.Load(), 4*5000)
	}
	if h.Count() != 4*5000 {
		t.Errorf("histogram count = %d", h.Count())
	}
}
