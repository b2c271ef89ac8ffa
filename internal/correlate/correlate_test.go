package correlate

import (
	"math"
	"testing"

	"smash/internal/herd"
	"smash/internal/similarity"
	"smash/internal/stats"
)

// mkHerd builds an ASH literal with density 1.
func mkHerd(dim string, id int, servers ...string) herd.ASH {
	return herd.ASH{Dimension: dim, ID: id, Servers: servers, Density: 1.0}
}

func minedResult(main []herd.ASH, secondary map[string][]herd.ASH) *herd.Result {
	return &herd.Result{
		MainDimension: similarity.DimClient,
		Main:          main,
		Secondary:     secondary,
	}
}

func TestCorrelateTwoDimensionAgreement(t *testing.T) {
	// 6 servers agree on main + file + ip: with density 1 each and
	// intersection 6, sigma(6) ~ 0.64, so score ~ 1.28 > 1.0.
	servers := []string{"a.com", "b.com", "c.com", "d.com", "e.com", "f.com"}
	mined := minedResult(
		[]herd.ASH{mkHerd(similarity.DimClient, 0, servers...)},
		map[string][]herd.ASH{
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, servers...)},
			similarity.DimIP:   {mkHerd(similarity.DimIP, 0, servers...)},
		})
	res := Correlate(mined, Options{Threshold: 1.0})
	if len(res.Herds) != 1 {
		t.Fatalf("herds = %d, want 1", len(res.Herds))
	}
	h := res.Herds[0]
	if len(h.Servers) != 6 {
		t.Errorf("surviving servers = %d, want 6", len(h.Servers))
	}
	wantScore := 2 * stats.Sigma(6, stats.DefaultMu, stats.DefaultBeta)
	if math.Abs(h.Score-wantScore) > 1e-9 {
		t.Errorf("score = %g, want %g", h.Score, wantScore)
	}
	sc := res.Scores["a.com"]
	if len(sc.Dimensions) != 2 {
		t.Errorf("dimensions = %v, want 2 entries", sc.Dimensions)
	}
}

func TestCorrelateSingleDimensionBelowThreshold(t *testing.T) {
	// Main + one secondary with a small intersection: sigma(3) < 0.5, so a
	// 0.8 threshold removes everything.
	servers := []string{"a.com", "b.com", "c.com"}
	mined := minedResult(
		[]herd.ASH{mkHerd(similarity.DimClient, 0, servers...)},
		map[string][]herd.ASH{
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, servers...)},
		})
	res := Correlate(mined, Options{Threshold: 0.8})
	if len(res.Herds) != 0 {
		t.Errorf("small single-dimension herd survived: %+v", res.Herds)
	}
	// Scores are still recorded for diagnostics.
	if res.Scores["a.com"] == nil || res.Scores["a.com"].Score <= 0 {
		t.Error("score not recorded")
	}
}

func TestCorrelateNoSecondaryAgreement(t *testing.T) {
	// Main herd with no overlapping secondary herds: nothing suspicious.
	mined := minedResult(
		[]herd.ASH{mkHerd(similarity.DimClient, 0, "a.com", "b.com")},
		map[string][]herd.ASH{
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, "x.com", "y.com")},
		})
	res := Correlate(mined, Options{})
	if len(res.Herds) != 0 || len(res.Scores) != 0 {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestCorrelateSingletonIntersectionIgnored(t *testing.T) {
	// Secondary herd sharing exactly one server with the main herd carries
	// no association evidence.
	mined := minedResult(
		[]herd.ASH{mkHerd(similarity.DimClient, 0, "a.com", "b.com", "c.com")},
		map[string][]herd.ASH{
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, "a.com", "x.com", "y.com")},
		})
	res := Correlate(mined, Options{Threshold: 0.01})
	if len(res.Scores) != 0 {
		t.Errorf("singleton intersection scored: %+v", res.Scores)
	}
}

func TestCorrelateDensityWeighting(t *testing.T) {
	// Lower-density herds contribute proportionally lower scores.
	servers := []string{"a.com", "b.com", "c.com", "d.com", "e.com", "f.com"}
	dense := minedResult(
		[]herd.ASH{mkHerd(similarity.DimClient, 0, servers...)},
		map[string][]herd.ASH{
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, servers...)},
		})
	sparseMain := mkHerd(similarity.DimClient, 0, servers...)
	sparseMain.Density = 0.5
	sparse := minedResult(
		[]herd.ASH{sparseMain},
		map[string][]herd.ASH{
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, servers...)},
		})
	dRes := Correlate(dense, Options{Threshold: 0.01})
	sRes := Correlate(sparse, Options{Threshold: 0.01})
	dScore := dRes.Scores["a.com"].Score
	sScore := sRes.Scores["a.com"].Score
	if math.Abs(sScore-dScore/2) > 1e-9 {
		t.Errorf("density weighting off: dense %g, sparse %g", dScore, sScore)
	}
}

func TestCorrelateLargeGroupBeatsSmallGroup(t *testing.T) {
	big := make([]string, 20)
	for i := range big {
		big[i] = string(rune('a'+i)) + ".com"
	}
	small := []string{"x1.com", "x2.com", "x3.com"}
	mined := minedResult(
		[]herd.ASH{
			mkHerd(similarity.DimClient, 0, big...),
			mkHerd(similarity.DimClient, 1, small...),
		},
		map[string][]herd.ASH{
			similarity.DimFile: {
				mkHerd(similarity.DimFile, 0, big...),
				mkHerd(similarity.DimFile, 1, small...),
			},
		})
	res := Correlate(mined, Options{Threshold: 0.01})
	if res.Scores[big[0]].Score <= res.Scores[small[0]].Score {
		t.Errorf("large group %g should outscore small group %g",
			res.Scores[big[0]].Score, res.Scores[small[0]].Score)
	}
}

func TestDimensionDecomposition(t *testing.T) {
	servers := []string{"a.com", "b.com", "c.com", "d.com", "e.com", "f.com"}
	mined := minedResult(
		[]herd.ASH{mkHerd(similarity.DimClient, 0, servers...)},
		map[string][]herd.ASH{
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, servers...)},
			similarity.DimIP:   {mkHerd(similarity.DimIP, 0, servers[:4]...)},
		})
	res := Correlate(mined, Options{Threshold: 0.3})
	decomp := res.DimensionDecomposition(0.3)
	if decomp["ipset+urifile"] != 4 {
		t.Errorf("ipset+urifile = %d, want 4; decomp=%v", decomp["ipset+urifile"], decomp)
	}
	if decomp["urifile"] != 2 {
		t.Errorf("urifile = %d, want 2; decomp=%v", decomp["urifile"], decomp)
	}
}

// A server's score sums one term per secondary dimension, and float
// addition is not associative: with three or more dimensions the terms
// must be added in one fixed (name) order, or the score's bits change from
// run to run with the map order.
func TestCorrelateScoreDeterministic(t *testing.T) {
	servers := []string{"a.com", "b.com", "c.com", "d.com", "e.com", "f.com"}
	densities := map[string]float64{"d1": 0.07, "d2": 0.13, "d3": 0.29}
	secondary := make(map[string][]herd.ASH)
	for dim, d := range densities {
		h := mkHerd(dim, 0, servers...)
		h.Density = d
		secondary[dim] = []herd.ASH{h}
	}
	mined := minedResult([]herd.ASH{mkHerd(similarity.DimClient, 0, servers...)}, secondary)
	sigma := stats.Sigma(6, stats.DefaultMu, stats.DefaultBeta)
	sum := func(order ...string) uint64 {
		s := 0.0
		for _, dim := range order {
			s += densities[dim] * 1.0 * sigma
		}
		return math.Float64bits(s)
	}
	want := sum("d1", "d2", "d3")
	if sum("d1", "d3", "d2") == want && sum("d2", "d3", "d1") == want {
		t.Fatal("fixture broken: every order of the terms sums to the same bits")
	}
	for run := 0; run < 200; run++ {
		res := Correlate(mined, Options{Threshold: 0.01})
		for _, s := range servers {
			if got := math.Float64bits(res.Scores[s].Score); got != want {
				t.Fatalf("run %d: %s score bits %x, want %x (the name-order sum)", run, s, got, want)
			}
		}
	}
}

func TestCorrelateGroupsWithOneSurvivorDropped(t *testing.T) {
	// Construct scores where only one server in the herd passes: herd must
	// be dropped even though that server scores high.
	servers := []string{"a.com", "b.com", "c.com", "d.com", "e.com"}
	mined := minedResult(
		[]herd.ASH{mkHerd(similarity.DimClient, 0, servers...)},
		map[string][]herd.ASH{
			// a.com gets file+ip (two dims); the others only file.
			similarity.DimFile: {mkHerd(similarity.DimFile, 0, servers...)},
			similarity.DimIP:   {mkHerd(similarity.DimIP, 0, "a.com", "b.com")},
		})
	// Threshold chosen between the single-dim and double-dim scores such
	// that only a.com passes... but a.com+b.com's ip intersection is 2,
	// sigma(2) ~ 0.36 so a.com ~ sigma(5)+0.36·... Let's just compute.
	res := Correlate(mined, Options{Threshold: 0.01})
	aScore := res.Scores["a.com"].Score
	cScore := res.Scores["c.com"].Score
	if aScore <= cScore {
		t.Fatalf("setup broken: a=%g c=%g", aScore, cScore)
	}
	mid := (aScore + cScore) / 2
	res2 := Correlate(mined, Options{Threshold: mid})
	for _, h := range res2.Herds {
		if len(h.Servers) < 2 {
			t.Errorf("herd with %d server(s) survived", len(h.Servers))
		}
	}
}
