// Command smashload is smash's benchmark: it generates a deterministic
// synthetic world, launches real smashd processes built from the checkout
// it runs in, streams the world through them over stdin pipes, reads every
// window's NDJSON result from the root's stdout, checks the output, and
// prints each metric by name and unit. See bench/README.md.
//
//	go run -C bench ./smashload -workload <name|all> [-seed 44] [-seconds 30] [-trace 0|1]
//	go run -C bench ./smashload -aa 5          # two sets of runs of the same code must agree
//	go run -C bench ./smashload -selfcheck     # a planted slowdown must be flagged
//	go run -C bench ./smashload -workload all -update-golden
//
// The last line of standard output is one JSON object: correct, attempted,
// failed (windows) and the metrics — the end-to-end ones with -trace 0,
// the per-layer ones with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// setupReps is how often a run sets the workload up; setup_s is the median
// and the last set-up is the one measured.
const setupReps = 5

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	aa           int
	selfcheck    bool
	updateGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 44, "picks the addresses the world's clients get; the world itself is fixed by the spec")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long one run streams events")
	flag.IntVar(&o.trace, "trace", 0, "1 = report the per-layer metrics and write the span file instead of the end-to-end metrics")
	flag.IntVar(&o.aa, "aa", 0, "run every workload N times as set A and N times as set B, alternating, and fail if their medians differ by more than a bound")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "rerun the closed-loop sliding workload with GOGC=10 in smashd's environment and require events_per_s to be flagged")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/golden from this run instead of comparing against it")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := realMain(ctx, o)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smashload:", err)
		os.Exit(1)
	}
}

// bench is what every run of this process shares.
type bench struct {
	paths paths
	spec  *Spec
	bin   string
}

func realMain(ctx context.Context, o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be > 0")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	spec, err := loadSpec(specJSON)
	if err != nil {
		return err
	}
	workloads := spec.Workloads
	if o.workload != "all" {
		w, err := spec.workload(o.workload)
		if err != nil {
			return err
		}
		workloads = []Workload{*w}
	}
	p, err := findPaths()
	if err != nil {
		return err
	}
	// The build is outside every metric, set-up time included.
	bin, err := buildDaemon(ctx, p)
	if err != nil {
		return err
	}
	b := &bench{paths: p, spec: spec, bin: bin}

	switch {
	case o.aa > 0:
		return b.runAA(ctx, workloads, o)
	case o.selfcheck:
		return b.runSelfcheck(ctx, o)
	}
	ok := true
	for i := range workloads {
		var res *result
		if o.trace == 1 {
			res, err = b.traced(ctx, &workloads[i], o)
		} else {
			res, err = b.measure(ctx, &workloads[i], o, nil)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", workloads[i].Name, err)
		}
		res.print()
		ok = ok && res.Correct
	}
	if !ok {
		return errors.New("output check failed")
	}
	return nil
}

// measured is one metric's value as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload; its JSON form is the
// benchmark's contract with whatever runs it.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`

	headline string
	problems []string
}

func newResult(defs []metric, v values, checked verdict) *result {
	r := &result{
		Correct: len(checked.problems) == 0, Attempted: checked.attempted, Failed: checked.failed,
		Metrics: make(map[string]measured, len(defs)), problems: checked.problems,
	}
	for _, d := range defs {
		r.Metrics[d.Name] = measured{v[d.Name], d.Unit}
	}
	return r
}

// print writes the readable table, then the JSON line.
func (r *result) print() {
	fmt.Println(r.headline)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for i, p := range r.problems {
		if i == 10 {
			fmt.Printf("  ... and %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Println("  PROBLEM:", p)
	}
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// setUp generates and renders the world and launches the topology.
func (b *bench) setUp(ctx context.Context, w *Workload, seed int64, childEnv []string) (*world, *topology, error) {
	sw, err := generate(b.spec.World)
	if err != nil {
		return nil, nil, err
	}
	wl, err := newWorld(sw, max(1, w.Topology.Ingest), seed)
	if err != nil {
		return nil, nil, err
	}
	t, err := launch(ctx, b.bin, b.spec, w, childEnv)
	if err != nil {
		return nil, nil, err
	}
	return wl, t, nil
}

// execute sets the workload up reps times, keeps the last set-up and
// streams through it. The hard timeout is three times the expected run.
func (b *bench) execute(ctx context.Context, w *Workload, seed int64, seconds float64, reps int, childEnv []string) (*world, *run, float64, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Duration(3*seconds+30)*time.Second)
	defer cancel()
	var (
		wl     *world
		t      *topology
		setups []float64
	)
	for rep := 0; rep < reps; rep++ {
		if t != nil {
			t.kill()
		}
		t0 := time.Now()
		var err error
		if wl, t, err = b.setUp(ctx, w, seed, childEnv); err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r, err := drive(ctx, t, wl, b.spec, w, seconds)
	return wl, r, median(setups), err
}

// measure is one untraced run: the end-to-end metrics and the output check.
func (b *bench) measure(ctx context.Context, w *Workload, o options, childEnv []string) (*result, error) {
	wl, r, setupS, err := b.execute(ctx, w, o.seed, o.seconds, setupReps, childEnv)
	if err != nil {
		return nil, err
	}
	if o.updateGolden {
		if err := writeGolden(goldenPath(b.paths, w.Name, b.spec.World.Seed), goldenOf(r, w.Name, b.spec.World.Seed)); err != nil {
			return nil, err
		}
	}
	g, err := loadGolden(b.paths, w.Name, b.spec.World.Seed)
	if err != nil {
		return nil, err
	}
	v, timed, err := endToEndValues(r, b.spec, wl)
	if err != nil {
		return nil, err
	}
	v["setup_s"] = setupS
	verdict := check(r, b.spec, w, g)
	res := newResult(endToEnd, v, verdict)
	ref := "periodicity"
	if g != nil {
		ref = "golden file + periodicity"
	}
	res.headline = fmt.Sprintf("%s seed %d: %d events in %.1fs, %d windows (%d failed), %d timed, checked against %s",
		w.Name, o.seed, r.sched.n, r.wallS, verdict.attempted, verdict.failed, timed, ref)
	return res, nil
}
