package main

import (
	"fmt"
	"math"
	"sort"
)

// metric declares one reported number. BENCHMARK.json lists the same
// names, units, directions and bounds (TestBenchmarkJSONMatches).
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression; 0 for per-layer
	// metrics, which have none.
	Bound float64
}

const (
	higher = "higher"
	lower  = "lower"
)

// tailP is the tail percentile of seal-to-result: the highest round one
// that keeps ten samples beyond it on the workload with the fewest windows
// (the cluster seals a 24 h window every 0.5 s: 57 timed ones in 30 s).
const tailP = 0.80

// The timing bounds are about three times the run-to-run spread (quartile
// distance over median, ten runs) seen on the 2-vCPU shared reference box
// in its calm state, capped at the contract's 0.25: the box's speed drifts
// by 10-20 % over minutes, and a bound inside that drift would reject
// changes for the weather. recall and precision repeat exactly.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"events_per_s", "1/s", higher, 0.20},
	{"cpu_s_per_mevent", "s/Mevent", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"seal_to_result_p50_ms", "ms", lower, 0.25},
	{"seal_to_result_p80_ms", "ms", lower, 0.25},
	{"recall", "ratio", higher, 0.005},
	{"precision", "ratio", higher, 0.005},
}

// values maps metric name to measured value.
type values map[string]float64

// median returns the middle of xs (mean of the middle two), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midmean returns the mean of the middle half of xs (the values between
// its quartiles): as deaf to a few wild samples as the median, but not
// stuck on the 10 ms grid CPU times are sampled on.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// percentile returns the nearest-rank p-quantile of xs. A percentile with
// fewer than ten samples beyond it is refused: it would be set by a
// handful of windows (p80 needs 50 samples, p90 100, p99 1000).
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%.0f of no samples", p*100)
	}
	if beyond := float64(n) * (1 - p); p > 0.5 && beyond < 10-1e-9 {
		return 0, fmt.Errorf("p%.0f needs %d samples to keep ten beyond it, got %d",
			p*100, int(math.Ceil(10/(1-p)-1e-9)), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	return s[max(rank, 1)-1], nil
}

// endToEndValues derives the end-to-end metrics (all but setup_s) from a
// run, and the number of timed windows behind the latency percentiles.
func endToEndValues(r *run, s *Spec, wl *world) (values, int, error) {
	v := values{}

	// Throughput and CPU: the stream repeats with period one pass, so the
	// results of window i and of window i - perPass are exactly one pass
	// of work apart, wherever in the pass they lie. Every such pair is a
	// sample; the middle of the samples is reported, so a burst of host
	// noise moves a few samples, not the result. The first pass (warm-up)
	// and the windows only end-of-stream seals start no pair.
	perPass := r.sched.perPass()
	events := float64(len(r.sched.off))
	var rates, cpus []float64
	for i := 2*perPass - 1; i < len(r.windows); i++ {
		win, prev := &r.windows[i], &r.windows[i-perPass]
		if win.sealed.IsZero() || win.arrived.IsZero() || prev.arrived.IsZero() || win.cpuS == 0 || prev.cpuS == 0 {
			continue
		}
		rates = append(rates, events/win.arrived.Sub(prev.arrived).Seconds())
		cpus = append(cpus, (win.cpuS-prev.cpuS)/(events/1e6))
	}
	if len(rates) < perPass {
		return nil, 0, fmt.Errorf("%d windows one pass apart; events_per_s needs a pass of them (%d): raise -seconds", len(rates), perPass)
	}
	v["events_per_s"] = median(rates)
	v["cpu_s_per_mevent"] = midmean(cpus)

	for _, p := range r.procs {
		v["peak_rss_mb"] += p.peakRSSMB
	}

	lat := r.latenciesMs(s)
	v["seal_to_result_p50_ms"] = median(lat)
	tail, err := percentile(lat, tailP)
	if err != nil {
		return nil, 0, fmt.Errorf("seal_to_result: %w: raise -seconds", err)
	}
	v["seal_to_result_p80_ms"] = tail

	v["recall"], v["precision"] = score(wl.synth, r.detected)
	return v, len(lat), nil
}

// latenciesMs returns seal-to-result of every window an event sealed,
// past the first day's windows (process warm-up: first heap growth, cold
// caches).
func (r *run) latenciesMs(s *Spec) []float64 {
	warm := int(int64(s.Daemon.Window) / r.sched.stride)
	var lat []float64
	for i := warm; i < len(r.windows); i++ {
		if win := &r.windows[i]; !win.sealed.IsZero() && !win.arrived.IsZero() {
			lat = append(lat, win.arrived.Sub(win.sealed).Seconds()*1e3)
		}
	}
	return lat
}
