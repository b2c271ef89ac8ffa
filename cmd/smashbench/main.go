// Command smashbench regenerates every table and figure of the paper's
// evaluation over the synthetic worlds (see DESIGN.md for the per-experiment
// index) and writes one consolidated report.
//
// Usage:
//
//	smashbench [-scale 1.0] [-seed 42] [-out report.txt]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// -scale < 1 shrinks the worlds proportionally for quick runs; absolute
// counts then shrink too, but the shapes the paper reports (who wins, FP
// monotonicity, dimension dominance) persist. -cpuprofile/-memprofile
// capture pprof profiles of the whole run for hot-path analysis.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"time"

	"smash/internal/eval"
	"smash/internal/profiling"
	"smash/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smashbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smashbench", flag.ContinueOnError)
	var (
		scale      = fs.Float64("scale", 1.0, "world scale factor (clients/servers)")
		seed       = fs.Int64("seed", 42, "generation seed")
		outPath    = fs.String("out", "", "also write the report to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	out := stdout
	var file *os.File
	if *outPath != "" {
		var err error
		file, err = os.Create(*outPath)
		if err != nil {
			return err
		}
		defer file.Close()
		out = io.MultiWriter(stdout, file)
	}

	start := time.Now()
	envs, err := buildEnvs(*scale, *seed)
	if err != nil {
		return err
	}
	day2011, day2012, week := envs[0], envs[1], envs[2]
	fmt.Fprintf(out, "SMASH evaluation report (scale=%.2f seed=%d)\n", *scale, *seed)
	fmt.Fprintf(out, "generated worlds in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Fprintln(out, eval.TableI(day2011, day2012, week))

	for _, step := range []struct {
		name string
		fn   func() (fmt.Stringer, error)
	}{
		{"Table II", tableFn(func() (*eval.Table, error) { return eval.TableII(day2011, day2012) })},
		{"Table III", tableFn(func() (*eval.Table, error) { return eval.TableIII(day2011, day2012) })},
		{"Table IV", tableFn(func() (*eval.Table, error) { return eval.TableIV(day2011) })},
		{"Table V", tableFn(func() (*eval.Table, error) { return eval.TableV(week) })},
		{"Table VI", tableFn(func() (*eval.Table, error) { return eval.TableVI(week) })},
		{"Table XI", tableFn(func() (*eval.Table, error) { return eval.TableXI(day2011, day2012) })},
		{"Table XII", tableFn(func() (*eval.Table, error) { return eval.TableXII(day2011, day2012) })},
		{"Figure 6", renderFn(func() (renderer, error) { return eval.BuildFigure6(day2011) })},
		{"Figure 7", renderFn(func() (renderer, error) { return eval.BuildFigure7(week) })},
		{"Figure 8", renderFn(func() (renderer, error) { return eval.BuildFigure8(day2011) })},
		{"Figure 9", renderFn(func() (renderer, error) { return eval.BuildFigure9(day2011) })},
		{"Figure 10", renderFn(func() (renderer, error) { return eval.BuildFigure10(day2011) })},
		{"Main dimension study", renderFn(func() (renderer, error) { return eval.BuildMainDimensionStudy(day2011) })},
	} {
		t0 := time.Now()
		result, err := step.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
		fmt.Fprintln(out, result.String())
		fmt.Fprintf(out, "  [%s computed in %v]\n\n", step.name, time.Since(t0).Round(time.Millisecond))
	}

	for _, name := range eval.PaperCaseStudies() {
		cs, err := eval.BuildCaseStudy(day2011, name)
		if err != nil {
			return fmt.Errorf("case study %s: %w", name, err)
		}
		fmt.Fprintln(out, cs.Render())
	}

	report, err := day2011.Run(0, 0.8, 1.0)
	if err != nil {
		return err
	}
	rec := day2011.Recall(0, report)
	fmt.Fprintf(out, "Headline: SMASH detected %d of %d ground-truth campaign servers; IDS2013 knew %d, blacklists %d (%.1fx the oracles combined)\n",
		rec.Detected, rec.TruthServers, rec.IDSDetected, rec.BlacklistDetected,
		safeRatio(rec.Detected, rec.IDSDetected+rec.BlacklistDetected))

	missed, err := eval.FalseNegatives(day2011, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "False negatives (IDS-labelled servers SMASH missed): %d threat groups\n", len(missed))
	for _, threat := range slices.Sorted(maps.Keys(missed)) {
		fmt.Fprintf(out, "  %-24s %d servers\n", threat, len(missed[threat]))
	}
	fmt.Fprintf(out, "\ntotal runtime %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func safeRatio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// renderer is anything with a Render method (the eval result types).
type renderer interface{ Render() string }

type stringerAdapter struct{ s string }

func (a stringerAdapter) String() string { return a.s }

func tableFn(fn func() (*eval.Table, error)) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		t, err := fn()
		if err != nil {
			return nil, err
		}
		return stringerAdapter{t.Render()}, nil
	}
}

func renderFn(fn func() (renderer, error)) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		r, err := fn()
		if err != nil {
			return nil, err
		}
		return stringerAdapter{r.Render()}, nil
	}
}

// buildEnvs creates the three dataset environments at the given scale.
func buildEnvs(scale float64, seed int64) ([3]*eval.Env, error) {
	var out [3]*eval.Env
	for i, name := range []string{"Data2011day", "Data2012day", "Data2012week"} {
		cfg := synth.DayProfile(name, seed)
		cfg.Clients = scaled(cfg.Clients, scale, 200)
		cfg.BenignServers = scaled(cfg.BenignServers, scale, 600)
		env, err := eval.NewEnvFromConfig(cfg)
		if err != nil {
			return out, err
		}
		out[i] = env
	}
	return out, nil
}

func scaled(v int, scale float64, min int) int {
	s := int(float64(v) * scale)
	if s < min {
		s = min
	}
	return s
}
