package main

import (
	"context"
	"testing"
	"time"
)

// TestRealProcessSmoke builds smashd and streams a small world through one
// real process, closed loop, tumbling: the whole untraced path short of
// the metrics, which need a longer run.
func TestRealProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	p, err := findPaths()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		World:          smallSpec,
		Daemon:         DaemonSpec{Window: Duration(24 * time.Hour), Workers: 2, LogLevel: "error"},
		LatencyLimitMs: 2000,
		Workloads: []Workload{{
			Name: "smoke", Why: "smoke", Loop: loopClosed,
			Topology: Topology{GOMAXPROCS: 2},
		}},
	}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	b := &bench{paths: p, spec: spec, bin: bin}
	w := &spec.Workloads[0]
	// 0.1 s is over before the first pass ends, so the run is minPasses long.
	wl, r, setupS, err := b.execute(ctx, w, 3, 0.1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if setupS <= 0 {
		t.Errorf("setup_s = %v", setupS)
	}
	if want := int64(minPasses * wl.events()); r.sched.n != want {
		t.Errorf("streamed %d events, want %d passes = %d", r.sched.n, minPasses, want)
	}
	v := check(r, spec, w, nil)
	if v.attempted != minPasses*smallSpec.Days || v.failed != 0 || len(v.problems) != 0 {
		t.Errorf("check: %+v", v)
	}
	if recall, precision := score(wl.synth, r.detected); recall <= 0.5 || precision <= 0.5 {
		t.Errorf("recall %v, precision %v: the daemon found too little", recall, precision)
	}
	for _, pr := range r.procs {
		if pr.cpuS <= 0 || pr.peakRSSMB <= 0 {
			t.Errorf("%s: cpu %v s, peak RSS %v MB", pr.role, pr.cpuS, pr.peakRSSMB)
		}
	}
	if r.windows[0].sealed.IsZero() || !r.windows[len(r.windows)-1].sealed.IsZero() {
		t.Error("the first window is sealed by an event, the last only by end of stream")
	}
}
