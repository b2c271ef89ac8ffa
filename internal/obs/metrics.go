// Package obs is SMASH's observability core: a dependency-free metrics
// registry (log-bucketed latency histograms and scrape-time counter and
// gauge collectors rendered in Prometheus text format), a
// window-lifecycle span tracer, and structured-logging helpers on
// log/slog. Every long-running component — the stream engine, the cluster
// forwarder and aggregator, the store sink and the HTTP ops API —
// instruments itself through this package, so one /metrics scrape and one
// /v1/windows/{seq}/trace fetch answer "where is my latency and what
// happened to window N" without a debugger.
//
// The package imports only the standard library and sits below every other
// internal package; nothing in it knows about traces, windows or
// campaigns. Instrument methods on nil receivers are no-ops, so call sites
// stay unconditional and a component built without a registry pays only a
// nil check.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing float64 (atomic; safe for
// concurrent Add and read) — a Histogram's running sum.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (no-op on a nil receiver or negative v).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Histogram buckets: geometric, growing by 2^(1/4) (~19%) per bucket from
// 1µs, so 144 upper bounds span 1µs to ~18h and any quantile read off the
// buckets is within one growth factor of the exact value. Values at or
// under histMin land in bucket 0; values past the last bound land in the
// implicit +Inf bucket.
const (
	histMin     = 1e-6 // seconds
	histBuckets = 144
)

var (
	histBounds  [histBuckets]float64
	invLnGrowth float64
)

func init() {
	growth := math.Pow(2, 0.25)
	invLnGrowth = 1 / math.Log(growth)
	b := histMin
	for i := range histBounds {
		histBounds[i] = b
		b *= growth
	}
}

// Histogram is a log-bucketed latency histogram in seconds: lock-free
// Observe, Prometheus histogram rendering (cumulative le buckets, sum,
// count) and quantile extraction accurate to one bucket's relative error
// (~19%). Safe for concurrent Observe and scrape.
type Histogram struct {
	counts [histBuckets + 1]atomic.Uint64 // last entry is the +Inf bucket
	sum    Counter
	count  atomic.Uint64
}

// bucketIndex maps a value in seconds to its bucket.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	i := int(math.Ceil(math.Log(v/histMin)*invLnGrowth - 1e-9))
	if i > histBuckets {
		i = histBuckets
	}
	return i
}

// Observe records one value in seconds (no-op on a nil receiver; negative
// and NaN values are dropped).
func (h *Histogram) Observe(seconds float64) {
	if h == nil || math.IsNaN(seconds) || seconds < 0 {
		return
	}
	h.counts[bucketIndex(seconds)].Add(1)
	h.sum.Add(seconds)
	h.count.Add(1)
}

// ObserveSince records the wall-clock elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the observed values:
// the geometric midpoint of the bucket holding the q-th sample, which is
// within one bucket growth factor (~19%) of the exact order statistic.
// Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var counts [histBuckets + 1]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			switch i {
			case 0:
				return histBounds[0]
			case histBuckets:
				return histBounds[histBuckets-1]
			default:
				return math.Sqrt(histBounds[i-1] * histBounds[i])
			}
		}
	}
	return histBounds[histBuckets-1] // unreachable
}

// Emit publishes one sample from a Func collector; labels are alternating
// key, value pairs appended to the family's name.
type Emit func(value float64, labels ...string)

// metric kinds, driving the rendered # TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric family: help, type and either histogram
// series or a scrape-time collector.
type family struct {
	name, help, kind string

	mu     sync.Mutex
	series map[string]*Histogram // label signature -> series

	collect func(Emit) // set for CounterFunc/GaugeFunc families
}

// Registry holds metric families and renders them as Prometheus text
// exposition format. Safe for concurrent registration, updates and
// scrapes. The zero Registry is not usable; create with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lookup returns the family, creating it on first use; a name reused with
// a different kind panics — that is a wiring bug, not a runtime condition.
func (r *Registry) lookup(name, help, kind string) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*Histogram)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// labelSignature renders alternating key, value pairs as a canonical
// `k1="v1",k2="v2"` string (the series key and the rendered label set).
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if !nameRE.MatchString(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Histogram returns the histogram series for name + labels, registering
// the family (with help) on first use. Repeated calls with the same name
// and labels return the same Histogram.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	f := r.lookup(name, help, kindHistogram)
	sig := labelSignature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.series[sig]; ok {
		return h
	}
	h := &Histogram{}
	f.series[sig] = h
	return h
}

// CounterFunc registers a scrape-time counter collector: collect is called
// on every render and emits any number of samples (with per-sample
// labels), which makes it the bridge for components that already keep
// their own atomic counters and for dynamic label sets. Re-registering the
// same name replaces the collector.
func (r *Registry) CounterFunc(name, help string, collect func(Emit)) {
	f := r.lookup(name, help, kindCounter)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collect = collect
}

// GaugeFunc registers a scrape-time gauge collector (see CounterFunc).
func (r *Registry) GaugeFunc(name, help string, collect func(Emit)) {
	f := r.lookup(name, help, kindGauge)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collect = collect
}

// formatValue renders a sample value the Prometheus way.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in name order: # HELP and # TYPE
// first, then the family's series (histogram series in label order,
// collector series in emission order). Histograms render cumulative non-empty
// buckets plus +Inf, _sum and _count per series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.render(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// render writes one family's exposition block.
func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.Lock()
	collect := f.collect
	sigs := make([]string, 0, len(f.series))
	for s := range f.series {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	series := make([]*Histogram, len(sigs))
	for i, s := range sigs {
		series[i] = f.series[s]
	}
	f.mu.Unlock()

	if collect != nil {
		collect(func(v float64, labels ...string) {
			writeSample(b, f.name, labelSignature(labels), v)
		})
		return
	}
	for i, h := range series {
		h.render(b, f.name, sigs[i])
	}
}

// writeSample renders one `name{labels} value` line.
func writeSample(b *strings.Builder, name, sig string, v float64) {
	b.WriteString(name)
	if sig != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// render writes one histogram series: cumulative buckets for every
// non-empty bucket bound plus the mandatory +Inf, then _sum and _count.
// Counts are snapshotted once so the +Inf bucket always equals _count even
// while observes race the scrape.
func (h *Histogram) render(b *strings.Builder, name, sig string) {
	var counts [histBuckets + 1]uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	var cum uint64
	withLE := func(le string) string {
		if sig == "" {
			return `le="` + le + `"`
		}
		return sig + `,le="` + le + `"`
	}
	for i := 0; i < histBuckets; i++ {
		if counts[i] == 0 {
			continue
		}
		cum += counts[i]
		writeSampleCount(b, name+"_bucket", withLE(formatValue(histBounds[i])), cum)
	}
	cum += counts[histBuckets]
	writeSampleCount(b, name+"_bucket", withLE("+Inf"), cum)
	writeSample(b, name+"_sum", sig, h.sum.Value())
	writeSampleCount(b, name+"_count", sig, cum)
}

func writeSampleCount(b *strings.Builder, name, sig string, v uint64) {
	b.WriteString(name)
	if sig != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(v, 10))
	b.WriteByte('\n')
}

// RegisterRuntimeMetrics adds Go runtime health series to the registry:
// goroutine count, heap bytes, cumulative GC pause seconds and GC cycles.
// Values are collected at scrape time.
func RegisterRuntimeMetrics(r *Registry) {
	r.GaugeFunc("smash_go_goroutines",
		"Number of live goroutines.",
		func(emit Emit) { emit(float64(runtime.NumGoroutine())) })
	r.GaugeFunc("smash_go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func(emit Emit) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(float64(ms.HeapAlloc))
		})
	r.CounterFunc("smash_go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func(emit Emit) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(float64(ms.PauseTotalNs) / 1e9)
		})
	r.CounterFunc("smash_go_gcs_total",
		"Completed GC cycles.",
		func(emit Emit) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			emit(float64(ms.NumGC))
		})
}
