package stream

import (
	"log/slog"
	"strconv"
	"time"

	"smash/internal/obs"
)

// engineObs bundles the observability wiring of the engine's window
// assembly side (the Committer instruments detection and sinks): the
// lifecycle tracer, the structured logger and the latency instruments
// registered on the metrics registry. The zero value (no registry, no
// tracer) is fully inert — every instrument method is a nil-receiver
// no-op — so the hot path carries at most a nil check when observability
// is off.
type engineObs struct {
	tr  *obs.Tracer
	log *slog.Logger

	ingestSeal *obs.Histogram // window first event -> sealed merged index
	sealCommit *obs.Histogram // sealed index -> sinks done, result published
}

// newEngineObs wires the engine instruments onto reg (nil disables
// metrics; a nil tracer disables spans; a nil logger discards).
func newEngineObs(reg *obs.Registry, tr *obs.Tracer, log *slog.Logger) engineObs {
	o := engineObs{tr: tr, log: log}
	if o.log == nil {
		o.log = obs.Discard()
	}
	if reg == nil {
		return o
	}
	o.ingestSeal = reg.Histogram("smash_ingest_seal_seconds",
		"Wall-clock from a window's first accepted event to its sealed, merged index.")
	o.sealCommit = reg.Histogram("smash_seal_commit_seconds",
		"Wall-clock from a window's sealed index to its committed result (sinks done, result published).")
	return o
}

// registerLag puts the watermark-lag gauge on reg: wall clock at scrape
// time minus the newest event time the windower has published, so a
// stalled feed shows a growing lag. Nothing is emitted before the first
// event.
func (e *Engine) registerLag(reg *obs.Registry) {
	reg.GaugeFunc("smash_watermark_lag_seconds",
		"Event-time lag: wall clock now minus the maximum event time ingested (absent before the first event).",
		func(emit obs.Emit) {
			if ns := e.maxEvent.Load(); ns != noEvent {
				emit(time.Since(time.Unix(0, ns)).Seconds())
			}
		})
}

// beginSeal stamps the seal start on the job and records the window
// header plus the "build" span (first accepted event -> seal start).
func (o *engineObs) beginSeal(j *windowJob) {
	j.sealStart = time.Now()
	if o.tr == nil {
		return
	}
	seq := int64(j.seq)
	o.tr.Window(seq, j.start, j.end)
	if !j.firstEvent.IsZero() {
		o.tr.Record(seq, "build", j.firstEvent, j.sealStart.Sub(j.firstEvent))
	}
}

// finishSeal stamps the merged index completion, records the "seal" span
// and observes the ingest->seal latency. Called by the sealer.
func (o *engineObs) finishSeal(j *windowJob) {
	j.sealedAt = time.Now()
	if o.tr != nil {
		o.tr.Record(int64(j.seq), "seal", j.sealStart, j.sealedAt.Sub(j.sealStart),
			"requests", itoa(j.requests))
	}
	if !j.firstEvent.IsZero() {
		o.ingestSeal.Observe(j.sealedAt.Sub(j.firstEvent).Seconds())
	}
	o.log.Debug("window sealed", "window", j.seq, "requests", j.requests, "indexed", j.indexed)
}

// itoa keeps span attribute construction allocation-light.
func itoa(n int) string { return strconv.Itoa(n) }
