package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// tracedShare is the part of -seconds a traced run spends streaming
// through real processes (for the proc.* and loadgen.* metrics); the rest
// of its time goes to cranking the layers in-process.
const tracedShare = 0.4

// procMetrics are the per-layer metrics taken from real processes.
var procMetrics = []metric{
	{Name: "proc.ingest.cpu_s_per_mevent", Unit: "s/Mevent", Better: lower},
	{Name: "proc.merge.cpu_s_per_mevent", Unit: "s/Mevent", Better: lower},
	{Name: "proc.root.cpu_s_per_mevent", Unit: "s/Mevent", Better: lower},
	{Name: "proc.root.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "proc.forward.bytes_per_event", Unit: "B/event", Better: lower},
	{Name: "proc.forward.retries", Unit: "count", Better: lower},
	{Name: "loadgen.lateness_p99_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.cpu_s_per_mevent", Unit: "s/Mevent", Better: lower},
}

// perLayer lists every per-layer metric: the span-derived ones, the
// coverage ratio that guards them, and the per-process ones.
func perLayer() []metric {
	var all []metric
	for _, m := range spanMetrics {
		all = append(all, m.metric)
	}
	all = append(all, metric{Name: "core.layer_coverage", Unit: "ratio", Better: higher})
	return append(all, procMetrics...)
}

// procValues derives the per-process metrics from a run.
func procValues(r *run) (values, error) {
	v := values{}
	mevents := float64(r.sched.n) / 1e6
	var forwarded float64
	for _, p := range r.procs {
		v["proc."+p.role+".cpu_s_per_mevent"] += p.cpuS / mevents
		if p.role == "root" {
			v["proc.root.peak_rss_mb"] = p.peakRSSMB
		}
		if p.role == "ingest" {
			forwarded += float64(p.summary.Bytes)
		}
		v["proc.forward.retries"] += float64(p.summary.Retries)
	}
	v["proc.forward.bytes_per_event"] = forwarded / float64(r.sched.n)
	v["loadgen.cpu_s_per_mevent"] = r.loaderCPUS / mevents
	if len(r.latenessMs) > 0 {
		p99, err := percentile(r.latenessMs, 0.99)
		if err != nil {
			return nil, fmt.Errorf("loadgen.lateness: %w batches: raise -seconds", err)
		}
		v["loadgen.lateness_p99_ms"] = p99
	}
	return v, nil
}

// traced is one traced run: a short stream through real processes, then
// the in-process layer crank, whose spans go to bench/out.
func (b *bench) traced(ctx context.Context, w *Workload, o options) (*result, error) {
	wl, r, _, err := b.execute(ctx, w, o.seed, o.seconds*tracedShare, 1, nil)
	if err != nil {
		return nil, err
	}
	v, err := procValues(r)
	if err != nil {
		return nil, err
	}
	verdict := check(r, b.spec, w, nil)

	scratch, err := os.MkdirTemp(b.paths.build, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	spans, err := crankLayers(ctx, wl, b.spec, w, scratch)
	if err != nil {
		return nil, err
	}
	spanFile := filepath.Join(b.paths.out, "trace-"+w.Name+".json")
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}
	lv, err := layerValues(spans)
	if err != nil {
		if lv == nil {
			return nil, err
		}
		verdict.problem("%v", err)
	}
	for name, x := range lv {
		v[name] = x
	}

	res := newResult(perLayer(), v, verdict)
	res.headline = fmt.Sprintf("%s seed %d traced: %d events through real processes, %d windows (%d failed); %d spans in %s",
		w.Name, o.seed, r.sched.n, verdict.attempted, verdict.failed, len(spans), spanFile)
	return res, nil
}
