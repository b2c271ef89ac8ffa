// Command smash runs the SMASH pipeline over an HTTP trace file (the TSV
// format produced by cmd/tracegen or an ISP flow-log export) and prints the
// inferred malicious campaigns.
//
// Usage:
//
//	smash -trace day1.tsv [-threshold 0.8] [-single-threshold 1.0]
//	      [-idf 200] [-seed 1] [-probe] [-v]
//
// Without -probe the pruning stage runs passively (referrer evidence only);
// with it, redirection chains and liveness are checked with live HTTP HEAD
// requests.
//
// SIGINT/SIGTERM cancel the run: the pipeline aborts at its next stage
// boundary (inside mining, at the next dimension) and smash exits with the
// context error. -v additionally logs per-stage wall-clock timings to
// stderr through a core.LogObserver.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"smash/internal/core"
	"smash/internal/trace"
	"smash/internal/webprobe"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smash:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smash", flag.ContinueOnError)
	var (
		tracePath    = fs.String("trace", "", "trace file to analyze (required)")
		threshold    = fs.Float64("threshold", 0.8, "inference threshold for multi-client campaigns")
		singleThresh = fs.Float64("single-threshold", 1.0, "inference threshold for single-client campaigns")
		idf          = fs.Int("idf", 200, "IDF popularity filter threshold")
		seed         = fs.Int64("seed", 1, "community detection seed")
		probe        = fs.Bool("probe", false, "probe inferred servers over live HTTP (redirection chains, liveness)")
		verbose      = fs.Bool("v", false, "print every campaign member")
		jsonOut      = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("read trace: %w", err)
	}

	opts := []core.Option{
		core.WithSeed(*seed),
		core.WithThreshold(*threshold),
		core.WithSingleClientThreshold(*singleThresh),
		core.WithIDFThreshold(*idf),
	}
	if *probe {
		opts = append(opts, core.WithProber(&webprobe.HTTPProber{}))
	}
	if *verbose {
		opts = append(opts, core.WithObserver(&core.LogObserver{W: os.Stderr, Prefix: "smash: "}))
	}
	report, err := core.NewPipeline(opts...).RunTrace(ctx, tr)
	if err != nil {
		return err
	}
	if *jsonOut {
		return report.WriteJSON(out)
	}

	fmt.Fprintln(out, report.TraceStats.Render())
	fmt.Fprintln(out, report.Preprocess.Render())
	fmt.Fprintf(out, "main herds: %d; secondary herds: %v; prune: %+v\n",
		report.MainHerds, report.SecondaryHerds, report.PruneStats)
	fmt.Fprintf(out, "inferred %d multi-client and %d single-client campaigns\n",
		len(report.Campaigns), len(report.SingleClientCampaigns))
	for _, c := range report.AllCampaigns() {
		fmt.Fprintln(out, " ", c.Render())
		if *verbose {
			for _, s := range c.Servers {
				score := 0.0
				dims := []string(nil)
				if sc := report.Scores[s]; sc != nil {
					score, dims = sc.Score, sc.Dimensions
				}
				fmt.Fprintf(out, "    %-30s score=%.2f dims=%v\n", s, score, dims)
			}
		}
	}
	return nil
}
