package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, err := percentile(xs, 0.90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples keeps fewer than ten beyond it and must be refused")
	}
	if got, err := percentile(xs[:50], 0.80); err != nil || got != 40 {
		t.Errorf("p80 of 1..50 = %v, %v; want 40", got, err)
	}
	if _, err := percentile(xs[:49], 0.80); err == nil {
		t.Error("p80 of 49 samples must be refused")
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midmean = %v, want the mean of 2..5 = 3.5", got)
	}
	if got := midmean([]float64{7}); got != 7 {
		t.Errorf("midmean of one sample = %v", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsmashd\nVmPeak:\t 1234 kB\nVmHWM:\t   45056 kB\nVmRSS:\t 100 kB\n"
	if got, err := parseVmHWM([]byte(status)); err != nil || got != 44 {
		t.Errorf("parseVmHWM = %v, %v; want 44 MB", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status without VmHWM must be an error")
	}
}

// fakeRun builds a correct run over two events a day for `passes` two-day
// passes, tumbling, with `campaigns[k]` campaigns in window k of every
// pass.
func fakeRun(passes int, campaigns []int) *run {
	h := int64(time.Hour)
	off := []int64{0, 12 * h, 24 * h, 36 * h}
	r := &run{sched: schedule{off: off, span: 48 * h, window: 24 * h, stride: 24 * h, n: int64(4 * passes)}}
	now := time.Now()
	r.windows = make([]window, r.sched.windows())
	for i := range r.windows {
		r.windows[i] = window{
			requests: 2, campaigns: campaigns[i%len(campaigns)],
			arrived: now.Add(time.Duration(i) * time.Second), cpuS: 0.5 * float64(i+1),
		}
		if _, ok := r.sched.sealedBy(i); ok {
			r.windows[i].sealed = r.windows[i].arrived.Add(-100 * time.Millisecond)
		}
	}
	events := r.sched.n
	r.summary = resultLine{Events: &events, Windows: len(r.windows)}
	r.procs = []procStats{{role: "root"}}
	return r
}

func TestCheck(t *testing.T) {
	spec, err := loadSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	closed := &Workload{Name: "t", Loop: loopClosed}
	open := &Workload{Name: "t", Loop: loopOpen, Rate: 100}
	gold := func(r *run) *golden { return goldenOf(r, "t", 44) }

	good := fakeRun(4, []int{3, 5})
	if v := check(good, spec, closed, gold(good)); v.failed != 0 || len(v.problems) != 0 || v.attempted != 8 {
		t.Fatalf("a correct run was faulted: %+v", v)
	}
	if g := gold(good); len(g.Windows) != 4 || g.WindowsPerPass != 2 || g.EventsPerPass != 4 {
		t.Fatalf("golden of a 4-pass run should hold two passes: %+v", g)
	}

	for _, tc := range []struct {
		name   string
		w      *Workload
		break_ func(r *run)
		golden bool
		failed int
		want   string
	}{
		{"missing window", closed, func(r *run) { r.windows[5].arrived = time.Time{} }, false, 1, "no result"},
		{"aborted window", closed, func(r *run) { r.windows[2].aborted = true }, false, 1, "aborted"},
		{"wrong request count", closed, func(r *run) { r.windows[3].requests = 1 }, false, 1, "the loader fed it 2"},
		{"aperiodic campaigns", closed, func(r *run) { r.windows[6].campaigns = 4 }, false, 1, "one period earlier"},
		{"differs from golden", closed, func(r *run) { r.windows[1].campaigns = 9 }, true, 1, "golden"},
		{"over the latency limit", open, func(r *run) { r.windows[4].sealed = r.windows[4].arrived.Add(-3 * time.Second) }, false, 1, "limit"},
		{"late events", closed, func(r *run) { r.summary.Late = 2 }, false, 0, "late"},
		{"event count", closed, func(r *run) { *r.summary.Events-- }, false, 0, "the loader wrote"},
		{"window count", closed, func(r *run) { r.summary.Windows++ }, false, 0, "summary counts"},
		{"non-zero exit", closed, func(r *run) { r.procs[0].exit = errTest; r.procs[0].stderr = "smashd: boom" }, false, 0, "boom"},
		{"forwarder retries", closed, func(r *run) { r.procs[0].summary.Retries = 1 }, false, 0, "retries"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := fakeRun(4, []int{3, 5})
			var g *golden
			if tc.golden {
				g = gold(r)
			}
			tc.break_(r)
			v := check(r, spec, tc.w, g)
			if v.failed != tc.failed {
				t.Errorf("failed = %d, want %d (%v)", v.failed, tc.failed, v.problems)
			}
			if len(v.problems) == 0 || !strings.Contains(strings.Join(v.problems, "\n"), tc.want) {
				t.Errorf("want a problem mentioning %q, got %v", tc.want, v.problems)
			}
		})
	}

	// A closed loop has no latency limit: a backlog is not a failure there.
	slow := fakeRun(4, []int{3, 5})
	slow.windows[4].sealed = slow.windows[4].arrived.Add(-3 * time.Second)
	if v := check(slow, spec, closed, nil); len(v.problems) != 0 {
		t.Errorf("closed loop faulted for latency: %v", v.problems)
	}
}

var errTest = errors.New("exit status 1")

func TestEndToEndValues(t *testing.T) {
	spec, err := loadSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	wl := smallWorld(t, 1)
	// 60 two-day passes, a window result every second: one pass of 4
	// events every 2 s.
	r := fakeRun(60, []int{1})
	r.procs = []procStats{{role: "root", cpuS: 2.4, peakRSSMB: 70}, {role: "ingest", cpuS: 1.2, peakRSSMB: 30}}
	r.detected = map[string]bool{}
	v, timed, err := endToEndValues(r, spec, wl)
	if err != nil {
		t.Fatal(err)
	}
	if got := v["events_per_s"]; got != 2 {
		t.Errorf("events_per_s = %v, want 2", got)
	}
	// Every window adds 0.5 CPU-seconds, a pass of 4 events 1 s.
	if got := v["cpu_s_per_mevent"]; got != 1/(4.0/1e6) {
		t.Errorf("cpu_s_per_mevent = %v, want 250000", got)
	}
	if got := v["peak_rss_mb"]; got != 100 {
		t.Errorf("peak_rss_mb = %v, want the sum 100", got)
	}
	// 120 windows, the first day's one is warm-up, the last has no sealing event.
	if timed != 118 {
		t.Errorf("timed windows = %d, want 118", timed)
	}
	if got := v["seal_to_result_p50_ms"]; got < 99.9 || got > 100.1 {
		t.Errorf("p50 = %v, want 100", got)
	}

	short := fakeRun(10, []int{1})
	short.detected = map[string]bool{}
	if _, _, err := endToEndValues(short, spec, wl); err == nil || !strings.Contains(err.Error(), "raise -seconds") {
		t.Errorf("a run too short for the tail percentile must say so, got %v", err)
	}
}

func TestLayerValues(t *testing.T) {
	var spans []span
	add := func(rep int, name string, ns int64, events int) {
		spans = append(spans, span{ID: len(spans), Parent: -1, Name: name, Rep: rep, StartNs: 0, EndNs: ns,
			Events: events, Count: 10, Allocs: uint64(2 * events), Bytes: uint64(8 * events)})
	}
	names := map[string]bool{"core.pipeline_run": true}
	for _, m := range spanMetrics {
		names[m.span] = true
	}
	for _, l := range detectionLayers {
		names[l] = true
	}
	for rep := 0; rep < layerReps; rep++ {
		for name := range names {
			ns := int64(1000 * (rep + 1))
			if name == "core.pipeline_run" {
				ns = int64(len(detectionLayers)) * 1000 * int64(rep+1)
			}
			add(rep, name, ns, 100)
		}
	}
	v, err := layerValues(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Repetitions took 10, 20 and 30 ns/event; the median is reported.
	if got := v["trace.index_add.ns_per_event"]; got != 20 {
		t.Errorf("ns_per_event = %v, want the median repetition 20", got)
	}
	if got := v["trace.index_add.allocs_per_event"]; got != 2 {
		t.Errorf("allocs_per_event = %v, want 2", got)
	}
	if got := v["core.layer_coverage"]; got != 1 {
		t.Errorf("coverage = %v, want 1", got)
	}
	for _, m := range perLayer() {
		if _, ok := v[m.Name]; !ok && !strings.HasPrefix(m.Name, "proc.") && !strings.HasPrefix(m.Name, "loadgen.") {
			t.Errorf("metric %s has no value", m.Name)
		}
	}

	// A layer missing from the trace is an error, not a zero.
	var holed []span
	for _, sp := range spans {
		if sp.Name != "similarity.file_graph" {
			holed = append(holed, sp)
		}
	}
	if _, err := layerValues(holed); err == nil || !strings.Contains(err.Error(), "similarity.file_graph") {
		t.Errorf("missing layer not reported: %v", err)
	}
}
