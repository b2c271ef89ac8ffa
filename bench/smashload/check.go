package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// golden is the committed reference output of one workload on one seed:
// what the first two passes' windows held. Pass 1 differs from every later
// pass (a sliding window's first strides have no predecessor); from pass 2
// on the stream repeats, so two passes describe a run of any length.
type golden struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	EventsPerPass  int            `json:"eventsPerPass"`
	WindowsPerPass int            `json:"windowsPerPass"`
	Windows        []goldenWindow `json:"windows"`
}

type goldenWindow struct {
	Requests  int `json:"requests"`
	Campaigns int `json:"campaigns"`
}

func goldenPath(p paths, workload string, seed int64) string {
	return filepath.Join(p.root, "bench", "golden", fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// loadGolden returns the committed reference for the seed, or nil when
// there is none (any seed but the default).
func loadGolden(p paths, workload string, seed int64) (*golden, error) {
	raw, err := os.ReadFile(goldenPath(p, workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(p, workload, seed), err)
	}
	return &g, nil
}

// goldenOf records a run's first two passes.
func goldenOf(r *run, workload string, seed int64) *golden {
	g := &golden{
		Workload: workload, Seed: seed,
		EventsPerPass: len(r.sched.off), WindowsPerPass: r.sched.perPass(),
	}
	for i := 0; i < min(2*g.WindowsPerPass, len(r.windows)) && r.complete(i); i++ {
		g.Windows = append(g.Windows, goldenWindow{r.windows[i].requests, r.windows[i].campaigns})
	}
	return g
}

func writeGolden(path string, g *golden) error {
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// complete reports whether the stream holds every event of window i; the
// last windows of a stream are cut short by its end.
func (r *run) complete(i int) bool {
	return r.sched.firstAtOrAfter(int64(i)*r.sched.stride+r.sched.window) <= r.sched.n
}

// verdict is the outcome of checking one run. Operations are windows.
type verdict struct {
	attempted, failed int
	// problems lists what was wrong, failed windows and run-wide faults
	// alike; the run is correct only when it is empty.
	problems []string
}

func (v *verdict) problem(format string, a ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, a...))
}

// check compares a run with what the loader knows it fed and with the
// reference output. Window counts and request counts are checked against
// the loader's own schedule; campaign counts against the golden file when
// the seed has one, and in any case against the stream's periodicity:
// window k of pass p > 2 must equal window k of pass 2. Neither reference
// is computed by the code under test during the run.
func check(r *run, s *Spec, w *Workload, g *golden) verdict {
	v := verdict{attempted: len(r.windows)}
	if g != nil && (g.EventsPerPass != len(r.sched.off) || g.WindowsPerPass != r.sched.perPass()) {
		v.problem("golden file describes a pass of %d events in %d windows; this run's pass has %d in %d",
			g.EventsPerPass, g.WindowsPerPass, len(r.sched.off), r.sched.perPass())
		g = nil
	}
	perPass := r.sched.perPass()
	for i := range r.windows {
		win := &r.windows[i]
		bad := false
		fail := func(format string, a ...any) {
			bad = true
			v.problem("window %d: %s", i, fmt.Sprintf(format, a...))
		}
		switch want := r.sched.requests(i); {
		case win.arrived.IsZero():
			fail("no result")
		case win.aborted:
			fail("aborted")
		case win.requests != want:
			fail("%d requests, the loader fed it %d", win.requests, want)
		}
		if w.Loop == loopOpen && !win.sealed.IsZero() && !win.arrived.IsZero() {
			if ms := win.arrived.Sub(win.sealed).Seconds() * 1e3; ms > s.LatencyLimitMs {
				fail("result %.0f ms after its sealing event was due, limit %.0f ms", ms, s.LatencyLimitMs)
			}
		}
		if r.complete(i) && !win.arrived.IsZero() {
			// pos is the window's place in the two reference passes.
			pos := i
			if i >= 2*perPass {
				pos = perPass + i%perPass
			}
			if g != nil && pos < len(g.Windows) {
				if ref := g.Windows[pos]; ref.Requests != win.requests || ref.Campaigns != win.campaigns {
					fail("(requests, campaigns) = (%d, %d), golden (%d, %d)",
						win.requests, win.campaigns, ref.Requests, ref.Campaigns)
				}
			}
			if ref := &r.windows[pos]; pos != i && ref.campaigns != win.campaigns {
				fail("%d campaigns, but window %d one period earlier had %d", win.campaigns, pos, ref.campaigns)
			}
		}
		if bad {
			v.failed++
		}
	}

	// Run-wide faults: none is a failed window, each makes the run wrong.
	fedEvents := int64(0)
	late := r.summary.Late + int64(r.summary.LateFragments)
	if r.summary.Events != nil {
		fedEvents = *r.summary.Events
	}
	for _, p := range r.procs {
		if p.exit != nil {
			v.problem("%s exited: %v: %s", p.role, p.exit, truncate(p.stderr, 300))
		}
		if p.role == "ingest" {
			fedEvents += p.summary.Events
			late += p.summary.Late
		}
		if p.summary.Retries+p.summary.Spooled+p.summary.SpoolDropped > 0 {
			v.problem("%s %s: %d forward retries, %d spooled, %d dropped",
				p.role, p.summary.Node, p.summary.Retries, p.summary.Spooled, p.summary.SpoolDropped)
		}
	}
	if fedEvents != r.sched.n {
		v.problem("smashd counted %d events, the loader wrote %d", fedEvents, r.sched.n)
	}
	if late != 0 {
		v.problem("%d late events or fragments", late)
	}
	if r.summary.Windows != len(r.windows) {
		v.problem("root's summary counts %d windows, the schedule %d", r.summary.Windows, len(r.windows))
	}
	return v
}
