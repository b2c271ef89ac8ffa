package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestEmbeddedSpecIsValid(t *testing.T) {
	s, err := loadSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) < 2 {
		t.Fatalf("want at least two workloads, got %d", len(s.Workloads))
	}
	if _, err := s.workload("no-such-workload"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload not rejected: %v", err)
	}
}

func TestSpecValidationRejectsUpFront(t *testing.T) {
	base := func() map[string]any {
		var m map[string]any
		if err := json.Unmarshal(specJSON, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := func(m map[string]any) map[string]any {
		return m["workloads"].([]any)[0].(map[string]any)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m map[string]any)
		want   string
	}{
		{"unknown field", func(m map[string]any) { m["passes"] = 3 }, "unknown field"},
		{"open loop without rate", func(m map[string]any) { first(m)["loop"] = "open" }, "rate > 0"},
		{"negative rate", func(m map[string]any) { first(m)["loop"] = "open"; first(m)["rate"] = -5 }, "rate > 0"},
		{"closed loop with rate", func(m map[string]any) { first(m)["rate"] = 100 }, "drop rate"},
		{"unknown loop", func(m map[string]any) { first(m)["loop"] = "half-open" }, "loop must be"},
		{"closed-loop cluster", func(m map[string]any) {
			first(m)["topology"] = map[string]any{"ingest": 2, "merge": 1, "gomaxprocs": 1}
		}, "open loop"},
		{"merge without ingest", func(m map[string]any) {
			first(m)["topology"] = map[string]any{"ingest": 0, "merge": 1, "gomaxprocs": 1}
		}, "needs ingest"},
		{"two merge tiers", func(m map[string]any) {
			first(m)["loop"], first(m)["rate"] = "open", 100
			first(m)["topology"] = map[string]any{"ingest": 2, "merge": 2, "gomaxprocs": 1}
		}, "merge must be 0 or 1"},
		{"gomaxprocs 0", func(m map[string]any) {
			first(m)["topology"] = map[string]any{"ingest": 0, "merge": 0, "gomaxprocs": 0}
		}, "gomaxprocs"},
		{"stride not dividing window", func(m map[string]any) { first(m)["stride"] = "5h" }, "divide"},
		{"stride over window", func(m map[string]any) { first(m)["stride"] = "48h" }, "stride must be in"},
		{"duplicate name", func(m map[string]any) {
			ws := m["workloads"].([]any)
			ws[1].(map[string]any)["name"] = first(m)["name"]
		}, "duplicate"},
		{"empty world", func(m map[string]any) { m["world"].(map[string]any)["clients"] = 0 }, "world"},
		{"no latency limit", func(m map[string]any) { m["latencyLimitMs"] = 0 }, "latencyLimitMs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := loadSpec(raw); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps the contract file at the repository root
// in step with the spec and the metric tables it describes.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(s.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the spec %d", len(bj.Workloads), len(s.Workloads))
	}
	for i, w := range s.Workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has (%q, %q), the spec (%q, %q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound mismatch", kind, m.Name)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long for the contract", kind, m.Name)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer(), false)
	if len(perLayer()) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer()))
	}
}
