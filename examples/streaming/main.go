// Streaming: the daily-operation story (§I, §V-B) run the way a production
// deployment would — as a continuous event stream instead of one batch per
// day. A four-day world with persistent and agile campaigns is replayed
// event-at-a-time through the internal/stream engine with one-day tumbling
// windows: the engine rotates windows, detects each sealed window on a
// worker pool, and emits campaign lineage deltas (appear / persist /
// rotate) as each window closes. The same days are then run through the
// classic batch Pipeline + tracker loop to show the two paths agree
// exactly.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"os/signal"
	"syscall"
	"time"

	"smash/internal/core"
	"smash/internal/stream"
	"smash/internal/synth"
	"smash/internal/trace"
	"smash/internal/tracker"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	world, err := synth.Generate(synth.Config{
		Name:          "streaming",
		Seed:          21,
		Days:          4,
		Clients:       350,
		BenignServers: 1000,
		MeanRequests:  15,
	})
	if err != nil {
		return err
	}
	detOpts := []core.Option{
		core.WithSeed(1),
		core.WithWhois(world.Whois),
		core.WithProber(world.Prober),
	}

	// The stream source: all four days concatenated in arrival order, as a
	// TSV replay or live feed would deliver them.
	var events []trace.Request
	for _, day := range world.Days {
		events = append(events, day.Requests...)
	}

	eng, err := stream.New(stream.Config{
		Name:     "streaming",
		Window:   24 * time.Hour,
		Workers:  4,
		Detector: detOpts,
	})
	if err != nil {
		return err
	}
	// The run context makes ^C a hard shutdown: ingestion stops and
	// in-flight window detections abort at their next stage boundary.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	fmt.Println("streaming 4 days through 1-day tumbling windows:")
	for w := range eng.StartContext(ctx, &stream.SliceSource{Requests: events}) {
		fmt.Println(w.Render())
		for i := range w.Deltas {
			fmt.Println("  " + w.Deltas[i].Render())
		}
	}
	if err := eng.Err(); err != nil {
		return err
	}
	stats := eng.Stats()
	fmt.Printf("\ningested %d events into %d windows\n", stats.Events, stats.Windows)
	fmt.Print(eng.Tracker().Summary())

	// The proof of equivalence: the batch loop over the same days grows
	// identical lineages.
	batch := tracker.New()
	det := core.NewPipeline(detOpts...)
	for _, day := range world.Days {
		report, err := det.RunTrace(context.Background(), day)
		if err != nil {
			return err
		}
		batch.Observe(report)
	}
	streamed, batched := eng.Tracker().Lineages(), batch.Lineages()
	if len(streamed) != len(batched) {
		return fmt.Errorf("stream/batch divergence: %d vs %d lineages", len(streamed), len(batched))
	}
	for i := range streamed {
		if streamed[i].Render() != batched[i].Render() {
			return fmt.Errorf("lineage %d diverges:\n  stream: %s\n  batch:  %s",
				i, streamed[i].Render(), batched[i].Render())
		}
	}
	fmt.Printf("\nbatch detector + tracker over the same days: %d identical lineages ✓\n", len(batched))
	return nil
}
