package preprocess

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"smash/internal/synth"
	"smash/internal/trace"
)

// indexWithPopularity builds an index with one server contacted by n clients
// for each n in clientCounts, keyed srv0, srv1, ...
func indexWithPopularity(clientCounts []int) *trace.Index {
	tr := &trace.Trace{}
	for si, n := range clientCounts {
		for c := 0; c < n; c++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Time:   time.Unix(0, 0),
				Client: fmt.Sprintf("client%d", c),
				Host:   fmt.Sprintf("srv%d.com", si),
				Status: 200,
			})
		}
	}
	return trace.BuildIndex(tr)
}

func TestFilterIDF(t *testing.T) {
	idx := indexWithPopularity([]int{5, 50, 300})
	res := FilterIDF(idx, 200)
	if res.ServersBefore != 3 || res.ServersAfter != 2 {
		t.Errorf("servers %d -> %d, want 3 -> 2", res.ServersBefore, res.ServersAfter)
	}
	if len(res.Removed) != 1 || res.Removed[0] != "srv2.com" {
		t.Errorf("Removed = %v, want [srv2.com]", res.Removed)
	}
	if _, ok := idx.Servers["srv2.com"]; ok {
		t.Error("popular server still in index")
	}
	if res.RequestsBefore != 355 || res.RequestsAfter != 55 {
		t.Errorf("requests %d -> %d, want 355 -> 55", res.RequestsBefore, res.RequestsAfter)
	}
	if red := res.TrafficReduction(); red < 0.8 {
		t.Errorf("TrafficReduction = %g, want > 0.8", red)
	}
	if keep := res.ServerRetention(); keep < 0.6 {
		t.Errorf("ServerRetention = %g", keep)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

// The pipeline filters a ShallowClone of the raw index instead of a deep
// copy. That must yield exactly the index and the report that filtering a
// Clone does, and leave the raw index as it was.
func TestFilterIDFOnShallowClone(t *testing.T) {
	world, err := synth.Generate(synth.Config{Seed: 3, Clients: 150, BenignServers: 300, MeanRequests: 20})
	if err != nil {
		t.Fatal(err)
	}
	raw := trace.BuildIndex(world.Trace())
	rawBefore := raw.Fingerprint()
	for _, threshold := range []int{0, 30, 5, 1 << 20} {
		want, got := raw.Clone(), raw.ShallowClone()
		wantRes, gotRes := FilterIDF(want, threshold), FilterIDF(got, threshold)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("threshold %d: result %+v, want %+v", threshold, gotRes, wantRes)
		}
		if threshold == 5 && (len(wantRes.Removed) < 10 || wantRes.ServersAfter == 0) {
			t.Fatalf("threshold 5 removed %d of %d servers: the fixture does not exercise the filter",
				len(wantRes.Removed), wantRes.ServersBefore)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("threshold %d: filtered shallow clone differs from filtered Clone", threshold)
		}
		if got.ComputeStats("x") != want.ComputeStats("x") {
			t.Errorf("threshold %d: stats %+v, want %+v", threshold, got.ComputeStats("x"), want.ComputeStats("x"))
		}
		if raw.Fingerprint() != rawBefore {
			t.Fatalf("threshold %d: filtering the shallow clone changed the raw index", threshold)
		}
	}
}

func TestFilterIDFDefaultThreshold(t *testing.T) {
	idx := indexWithPopularity([]int{150, 250})
	res := FilterIDF(idx, 0)
	if res.ServersAfter != 1 {
		t.Errorf("default threshold kept %d servers, want 1", res.ServersAfter)
	}
}

func TestFilterIDFBoundary(t *testing.T) {
	idx := indexWithPopularity([]int{200})
	res := FilterIDF(idx, 200)
	if res.ServersAfter != 1 {
		t.Error("server with IDF exactly at threshold must be kept")
	}
}

func TestFilterIDFEmpty(t *testing.T) {
	idx := trace.NewIndex()
	res := FilterIDF(idx, 200)
	if res.TrafficReduction() != 0 || res.ServerRetention() != 0 {
		t.Error("empty index ratios should be 0")
	}
}

func TestIDFHistogram(t *testing.T) {
	idx := indexWithPopularity([]int{1, 1, 5, 10})
	h := IDFHistogram(idx)
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	if h.Max() != 10 {
		t.Errorf("Max = %d, want 10", h.Max())
	}
	if got := h.FractionAtMost(1); got != 0.5 {
		t.Errorf("FractionAtMost(1) = %g, want 0.5", got)
	}
}

func TestFilenameLengthHistogram(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Time: time.Unix(0, 0), Client: "c", Host: "a.com", Path: "/login.php", Status: 200},
		{Time: time.Unix(0, 0), Client: "c", Host: "a.com", Path: "/x/averyveryverylongobfuscatedname.php", Status: 200},
		{Time: time.Unix(0, 0), Client: "c", Host: "b.com", Path: "/short", Status: 200},
	}}
	idx := trace.BuildIndex(tr)
	h := FilenameLengthHistogram(idx, []string{"a.com", "missing.com"})
	if h.Total() != 2 {
		t.Errorf("Total = %d, want 2 (missing server skipped, b.com excluded)", h.Total())
	}
	if h.Max() != len("averyveryverylongobfuscatedname.php") {
		t.Errorf("Max = %d", h.Max())
	}
}
