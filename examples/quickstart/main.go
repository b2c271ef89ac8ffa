// Quickstart: generate a small synthetic ISP day, run the SMASH pipeline
// over it through the staged core.Pipeline API — with an Observer printing
// per-stage timings — and print the inferred malicious campaigns.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"smash/internal/core"
	"smash/internal/synth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A small world: ~300 clients browsing ~800 benign sites, with the
	// default campaign mix (Bagle, Sality, Zeus DGA, domain flux, ZmEu
	// scanning, iframe injection, ...) injected on top.
	world, err := synth.Generate(synth.Config{
		Name:          "quickstart",
		Seed:          1,
		Clients:       300,
		BenignServers: 800,
		MeanRequests:  20,
	})
	if err != nil {
		return err
	}

	// The pipeline mirrors Fig. 2 of the paper in five stages run in order:
	// preprocessing, per-dimension ASH mining (fanned out across cores),
	// correlation, pruning, campaign inference. The whois registry enables
	// the whois dimension; the prober answers the pruning stage's
	// redirection/liveness questions from the synthetic topology. The
	// observer prints each stage's wall-clock time as it finishes, and the
	// context would let us abort mid-run (^C handling, deadlines).
	pipeline := core.NewPipeline(
		core.WithSeed(1),
		core.WithWhois(world.Whois),
		core.WithProber(world.Prober),
		core.WithThreshold(0.8), // the paper's operating point
		core.WithObserver(&core.LogObserver{W: os.Stderr, Prefix: "quickstart: "}),
	)
	report, err := pipeline.RunTrace(context.Background(), world.Trace())
	if err != nil {
		return err
	}

	fmt.Println(report.TraceStats.Render())
	fmt.Println(report.Preprocess.Render())
	fmt.Printf("mined %d main herds and %v secondary herds\n\n",
		report.MainHerds, report.SecondaryHerds)

	fmt.Printf("inferred %d multi-client campaigns:\n", len(report.Campaigns))
	for _, c := range report.Campaigns {
		fmt.Println(" ", c.Render())
	}
	fmt.Printf("\ninferred %d single-client campaigns:\n", len(report.SingleClientCampaigns))
	for _, c := range report.SingleClientCampaigns {
		fmt.Println(" ", c.Render())
	}

	// Check against the world's ground truth.
	detected := make(map[string]bool)
	for _, c := range report.AllCampaigns() {
		for _, s := range c.Servers {
			detected[s] = true
		}
	}
	truth := world.Truth.MaliciousServers()
	found := 0
	for _, s := range truth {
		if detected[s] {
			found++
		}
	}
	fmt.Printf("\nground truth: detected %d of %d planted campaign servers\n", found, len(truth))
	return nil
}
