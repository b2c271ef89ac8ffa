package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// The benchmark is described by one declarative tree, decoded from
// workloads.json and validated before anything is launched. Nothing below
// branches on a workload's name: a workload is its loop, rate, stride and
// topology.

//go:embed workloads.json
var specJSON []byte

// Spec is the whole benchmark: one world, the smashd flags every process
// shares, and the workloads that stream the world through a topology.
type Spec struct {
	World  WorldSpec  `json:"world"`
	Daemon DaemonSpec `json:"daemon"`
	// LatencyLimitMs fails a window of an open-loop workload whose
	// seal-to-result time exceeds it.
	LatencyLimitMs float64    `json:"latencyLimitMs"`
	Workloads      []Workload `json:"workloads"`
}

// WorldSpec is the synthetic world every run streams. Its seed is fixed:
// worlds of different seeds differ by 10-20 % in mining cost, which would
// drown any change in world-to-world variation. -seed picks the clients'
// addresses instead (see newWorld).
type WorldSpec struct {
	Name          string `json:"name"`
	Seed          int64  `json:"seed"`
	Days          int    `json:"days"`
	Clients       int    `json:"clients"`
	BenignServers int    `json:"benignServers"`
	MeanRequests  int    `json:"meanRequests"`
}

// DaemonSpec holds the smashd flags shared by every process of every
// workload.
type DaemonSpec struct {
	Window   Duration `json:"window"`
	Workers  int      `json:"workers"`
	LogLevel string   `json:"logLevel"`
}

// Workload is one way of streaming the world through smashd.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is "closed" (the pipe's backpressure paces the loader, whole
	// passes until the run time is up) or "open" (batches are written at
	// their due time at Rate events/s, whole days until the run time is
	// up).
	Loop string  `json:"loop"`
	Rate float64 `json:"rate,omitempty"`
	// Stride is smashd's -stride; 0 means tumbling windows.
	Stride   Duration `json:"stride"`
	Topology Topology `json:"topology"`
}

// Topology names the processes: Ingest = 0 is one standalone smashd fed
// directly; otherwise Ingest `-role ingest` nodes (one pipe each, clients
// hash-partitioned) forward through Merge `-role merge` tiers (0 or 1) to
// one `-role aggregate` root.
type Topology struct {
	Ingest     int `json:"ingest"`
	Merge      int `json:"merge"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Duration is a time.Duration spelled "6h" in JSON.
type Duration time.Duration

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"6h\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

const (
	loopClosed = "closed"
	loopOpen   = "open"
)

// loadSpec decodes and validates a spec; unknown fields are errors, so a
// typo cannot silently fall back to a default.
func loadSpec(raw []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate reports every problem at once rather than the first.
func (s *Spec) validate() error {
	var errs []error
	bad := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }

	if s.World.Days <= 0 || s.World.Clients <= 0 || s.World.BenignServers <= 0 || s.World.MeanRequests <= 0 {
		bad("world: days, clients, benignServers and meanRequests must all be > 0")
	}
	if s.Daemon.Window <= 0 {
		bad("daemon: window must be > 0")
	}
	if s.Daemon.Workers <= 0 {
		bad("daemon: workers must be > 0")
	}
	if s.LatencyLimitMs <= 0 {
		bad("latencyLimitMs must be > 0")
	}
	if len(s.Workloads) == 0 {
		bad("no workloads")
	}
	seen := make(map[string]bool)
	for i := range s.Workloads {
		w := &s.Workloads[i]
		at := func(format string, a ...any) {
			bad("workload %q: %s", w.Name, fmt.Sprintf(format, a...))
		}
		if w.Name == "" || strings.ContainsAny(w.Name, " /\t") {
			at("name must be non-empty without spaces or slashes")
		}
		if seen[w.Name] {
			at("duplicate name")
		}
		seen[w.Name] = true
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			at("why must be one non-empty line")
		}
		switch w.Loop {
		case loopClosed:
			if w.Rate != 0 {
				at("a closed loop is paced by backpressure; drop rate")
			}
			if w.Topology.Ingest > 0 {
				// Nothing bounds the backlog between cluster tiers, so a
				// saturated cluster measures its backlog, not the system.
				at("a cluster topology must be driven open loop")
			}
		case loopOpen:
			if w.Rate <= 0 {
				at("an open loop needs rate > 0 events/s")
			}
		default:
			at("loop must be %q or %q, got %q", loopClosed, loopOpen, w.Loop)
		}
		if w.Stride < 0 || w.Stride > s.Daemon.Window {
			at("stride must be in [0, window]")
		} else if w.Stride > 0 && s.Daemon.Window%w.Stride != 0 {
			at("stride must divide the window")
		}
		t := w.Topology
		if t.GOMAXPROCS <= 0 {
			at("topology.gomaxprocs must be > 0")
		}
		if t.Ingest < 0 || t.Ingest > 255 {
			at("topology.ingest must be in [0, 255]")
		}
		if t.Merge < 0 || t.Merge > 1 {
			at("topology.merge must be 0 or 1")
		}
		if t.Merge > 0 && t.Ingest == 0 {
			at("a merge tier needs ingest nodes to feed it")
		}
	}
	return errors.Join(errs...)
}

// workload looks a workload up by name.
func (s *Spec) workload(name string) (*Workload, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	names := make([]string, len(s.Workloads))
	for i := range s.Workloads {
		names[i] = s.Workloads[i].Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// stride returns the effective window stride (tumbling = the window).
func (s *Spec) stride(w *Workload) time.Duration {
	if w.Stride == 0 {
		return time.Duration(s.Daemon.Window)
	}
	return time.Duration(w.Stride)
}
