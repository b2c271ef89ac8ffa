package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// runSets measures w count times as set A and count times as set B,
// alternating which runs first so drift in the box lands on both. envB is
// added to smashd's environment in set B only.
func (b *bench) runSets(ctx context.Context, w *Workload, o options, count int, envB []string) (a, bb []values, err error) {
	for i := 0; i < 2*count; i++ {
		// A B, B A, A B, ...
		set, env, into := "A", []string(nil), &a
		if i%4 == 1 || i%4 == 2 {
			set, env, into = "B", envB, &bb
		}
		res, err := b.measure(ctx, w, o, env)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if !res.Correct {
			res.print()
			return nil, nil, fmt.Errorf("%s: output check failed", w.Name)
		}
		v := values{}
		for name, m := range res.Metrics {
			v[name] = m.Value
		}
		*into = append(*into, v)
		fmt.Printf("  %s pair %d/%d set %s: %.0f events/s\n", w.Name, i/2+1, count, set, v["events_per_s"])
	}
	return a, bb, nil
}

// compare prints, per end-to-end metric, both sets' medians, how much
// worse B's is than A's as a share of A's (negative = better), and the
// bound. It returns the metrics whose difference exceeds the bound: in
// either direction when symmetric (two sets of the same code disagree),
// else only where B is worse.
func compare(workload string, a, b []values, symmetric bool) (flagged []string) {
	fmt.Printf("%-20s %-24s %12s %12s %9s %7s\n", "workload", "metric", "median A", "median B", "B worse", "bound")
	for _, m := range endToEnd {
		ma, mb := median(column(a, m.Name)), median(column(b, m.Name))
		worse := (mb - ma) / ma
		if m.Better == higher {
			worse = -worse
		}
		mark := ""
		if worse > m.Bound || (symmetric && -worse > m.Bound) {
			mark = "  EXCEEDS"
			flagged = append(flagged, m.Name)
		}
		fmt.Printf("%-20s %-24s %12.6g %12.6g %+8.2f%% %6.1f%%%s\n", workload, m.Name, ma, mb, worse*100, m.Bound*100, mark)
	}
	return flagged
}

func column(vs []values, name string) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v[name]
	}
	return out
}

// runAA is the benchmark's own acceptance test: two sets of runs of the
// same code must agree within every metric's bound.
func (b *bench) runAA(ctx context.Context, workloads []Workload, o options) error {
	var bad []string
	for i := range workloads {
		w := &workloads[i]
		a, bb, err := b.runSets(ctx, w, o, o.aa, nil)
		if err != nil {
			return err
		}
		for _, name := range compare(w.Name, a, bb, true) {
			bad = append(bad, w.Name+"/"+name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("A/A: sets of identical runs differ by more than the bound on %s", strings.Join(bad, ", "))
	}
	fmt.Println("A/A: every metric of every workload agrees within its bound")
	return nil
}

// runSelfcheck plants a slowdown that needs no source change — GOGC=10 in
// smashd's environment makes the collector run about ten times as often —
// on the closed-loop sliding workload, where garbage from mining is the
// largest share of CPU, and requires the benchmark to flag events_per_s.
func (b *bench) runSelfcheck(ctx context.Context, o options) error {
	var w *Workload
	for i := range b.spec.Workloads {
		c := &b.spec.Workloads[i]
		if c.Loop == loopClosed && c.Stride > 0 && c.Stride < b.spec.Daemon.Window {
			w = c
			break
		}
	}
	if w == nil {
		return errors.New("selfcheck: the spec has no closed-loop sliding workload")
	}
	const runs = 3
	a, bb, err := b.runSets(ctx, w, o, runs, []string{"GOGC=10"})
	if err != nil {
		return err
	}
	flagged := compare(w.Name, a, bb, false)
	for _, name := range flagged {
		if name == "events_per_s" {
			fmt.Println("selfcheck: the planted slowdown (set B, GOGC=10) was flagged on events_per_s")
			return nil
		}
	}
	return fmt.Errorf("selfcheck: GOGC=10 was not flagged on %s/events_per_s (flagged: %v)", w.Name, flagged)
}
