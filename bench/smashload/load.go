package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"syscall"
	"time"
)

// batchEvents bounds one write: small enough that an open loop's events
// are at most a few milliseconds early, large enough that the loader's
// own CPU stays a rounding error beside smashd's.
const batchEvents = 128

// minPasses is the least a closed loop streams: the periodicity check and
// the per-pass throughput median both need passes beyond the second.
const minPasses = 4

// resultLine is one NDJSON line of a root's stdout: a window record, or
// the final summary (which has no "window" key).
type resultLine struct {
	Window    *int `json:"window"`
	Requests  int  `json:"requests"`
	Campaigns int  `json:"campaigns"`
	Aborted   bool `json:"aborted"`
	Deltas    []struct {
		NewServers []string `json:"newServers"`
	} `json:"deltas"`

	Events        *int64 `json:"events"`
	Late          int64  `json:"late"`
	Windows       int    `json:"windows"`
	LateFragments int    `json:"lateFragments"`
}

// nodeSummary is the final JSON line of an ingest or merge node.
type nodeSummary struct {
	Node         string `json:"node"`
	Events       int64  `json:"events"`
	Late         int64  `json:"late"`
	Forwarded    int    `json:"forwarded"`
	Retries      int    `json:"retries"`
	Bytes        int64  `json:"bytes"`
	Spooled      int    `json:"spooled"`
	SpoolDropped int    `json:"spoolDropped"`
}

// window is what the run observed of one window.
type window struct {
	requests, campaigns int
	aborted             bool
	// sealed is when the window's sealing event was written (closed loop)
	// or due (open loop); zero when only end-of-stream seals it.
	sealed time.Time
	// arrived is when its result line was read; zero when it never came.
	arrived time.Time
	// cpuS is the CPU all processes together had used when the result
	// arrived; 0 when one of them had already exited.
	cpuS float64
}

// procStats is what one process cost.
type procStats struct {
	role      string
	cpuS      float64
	peakRSSMB float64
	exit      error
	stderr    string
	summary   nodeSummary // ingest and merge nodes
}

// run is everything one real-process run observed.
type run struct {
	sched    schedule
	windows  []window
	detected map[string]bool // union of every delta's newServers
	summary  resultLine      // the root's final line
	procs    []procStats
	// latenessMs is how long after its due time each open-loop batch was
	// written.
	latenessMs []float64
	loaderCPUS float64
	wallS      float64
}

// drive feeds the launched topology for about seconds and collects the
// results. It owns t: every process has exited when it returns.
func drive(ctx context.Context, t *topology, wl *world, s *Spec, w *Workload, seconds float64) (*run, error) {
	defer t.kill()
	// A deadline's kill unblocks both a stalled write and the reader.
	stop := context.AfterFunc(ctx, t.kill)
	defer stop()

	r := &run{sched: schedule{
		off: wl.off, span: wl.span,
		window: int64(s.Daemon.Window), stride: int64(s.stride(w)),
	}}
	per := int64(wl.events())
	open := w.Loop == loopOpen
	if open {
		r.sched.n = wl.wholeDays(int64(w.Rate * seconds))
		if r.sched.n == 0 {
			return nil, fmt.Errorf("%.0f events/s for %.1fs does not cover one day of %d events", w.Rate, seconds, wl.dayEnd[0])
		}
	}

	type readResult struct {
		lines   []resultLine
		arrived []time.Time
		cpuS    []float64
		err     error
	}
	readDone := make(chan readResult, 1)
	go func() {
		var res readResult
		sc := bufio.NewScanner(t.root.stdout)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
		for sc.Scan() {
			now := time.Now()
			var line resultLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				res.err = fmt.Errorf("root stdout: %w: %q", err, truncate(sc.Text(), 200))
				break
			}
			cpu := 0.0
			for _, p := range t.procs {
				c, err := p.liveCPUSeconds()
				if err != nil {
					cpu = 0 // a process already gone: no sample
					break
				}
				cpu += c
			}
			res.lines = append(res.lines, line)
			res.arrived = append(res.arrived, now)
			res.cpuS = append(res.cpuS, cpu)
		}
		if res.err == nil {
			res.err = sc.Err()
		}
		// Keep draining so a root that prints past a bad line cannot block.
		_, _ = io.Copy(io.Discard, t.root.stdout)
		readDone <- res
	}()

	var sealed []time.Time // by window; grows as sealing events are written
	nextWin := 0
	cpu0 := selfCPUSeconds()
	t0 := time.Now()
	interval := time.Duration(0)
	if open {
		interval = time.Duration(float64(time.Second) / w.Rate)
	}

	var writeErr error
feed:
	for pass := 0; ; pass++ {
		first := int64(pass) * per
		if open && first >= r.sched.n {
			break
		}
		if !open && pass >= minPasses && time.Since(t0).Seconds() >= seconds {
			r.sched.n = first
			break
		}
		wl.retime(pass)
		for a := 0; a < int(per); a += batchEvents {
			b := min(a+batchEvents, int(per))
			if open {
				if first+int64(a) >= r.sched.n {
					break feed
				}
				b = int(min(int64(b), r.sched.n-first))
				due := t0.Add(time.Duration(first+int64(b)-1) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r.latenessMs = append(r.latenessMs, max(0, time.Since(due).Seconds()*1e3))
			}
			// Stamp every window whose sealing event is in this batch.
			// The stream's length is not known yet in a closed loop, so
			// look the event up without the end-of-stream bound.
			now := time.Now()
			for {
				g := r.sched.firstAtOrAfter(int64(nextWin)*r.sched.stride + r.sched.window)
				if g >= first+int64(b) {
					break
				}
				at := now
				if open {
					at = t0.Add(time.Duration(g) * interval)
				}
				sealed = append(sealed, at)
				nextWin++
			}
			for k, p := range t.fed {
				if _, err := p.stdin.Write(wl.slice(k, a, b)); err != nil {
					writeErr = fmt.Errorf("write to %s %d: %w", p.role, k, err)
					break feed
				}
			}
		}
	}
	fed := time.Now()

	// Peak memory is read while every process is still alive, after the
	// last event: a later reading would include nothing but drain.
	r.procs = make([]procStats, len(t.procs))
	for i, p := range t.procs {
		r.procs[i].role = p.role
		if rss, err := p.peakRSSMB(); err == nil {
			r.procs[i].peakRSSMB = rss
		} else if writeErr == nil {
			writeErr = fmt.Errorf("%s: %w", p.role, err)
		}
	}
	for _, p := range t.fed {
		p.stdin.Close()
	}
	if writeErr != nil {
		t.kill()
	}
	res := <-readDone
	for i, p := range t.procs {
		r.procs[i].exit = p.wait()
		r.procs[i].cpuS = p.cpuSeconds()
		r.procs[i].stderr = p.stderr.String()
		if p != t.root {
			// The node's last stdout line is its summary; a node that
			// died without one shows up through its exit status.
			out := bytes.TrimSpace(p.out.Bytes())
			_ = json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &r.procs[i].summary)
		}
	}
	r.loaderCPUS = selfCPUSeconds() - cpu0
	r.wallS = fed.Sub(t0).Seconds()

	if err := errors.Join(writeErr, res.err, ctx.Err()); err != nil {
		return nil, fmt.Errorf("%w%s", err, stderrTails(r.procs))
	}

	r.windows = make([]window, r.sched.windows())
	for i := range r.windows {
		if _, ok := r.sched.sealedBy(i); ok && i < len(sealed) {
			r.windows[i].sealed = sealed[i]
		}
	}
	r.detected = make(map[string]bool)
	for i, line := range res.lines {
		if line.Window == nil {
			r.summary = line
			continue
		}
		if *line.Window < 0 || *line.Window >= len(r.windows) {
			return nil, fmt.Errorf("root reported window %d; the stream holds %d", *line.Window, len(r.windows))
		}
		win := &r.windows[*line.Window]
		win.requests, win.campaigns, win.aborted = line.Requests, line.Campaigns, line.Aborted
		win.arrived, win.cpuS = res.arrived[i], res.cpuS[i]
		for _, d := range line.Deltas {
			for _, srv := range d.NewServers {
				r.detected[srv] = true
			}
		}
	}
	return r, nil
}

// selfCPUSeconds returns this process's user+system CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// stderrTails renders what failed processes said, for error messages.
func stderrTails(ps []procStats) string {
	out := ""
	for _, p := range ps {
		if p.exit != nil || p.stderr != "" {
			out += fmt.Sprintf("\n  %s: exit=%v stderr: %s", p.role, p.exit, truncate(p.stderr, 600))
		}
	}
	return out
}
