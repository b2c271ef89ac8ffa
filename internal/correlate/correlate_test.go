package correlate

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// referenceCorrelate is Correlate as it was before it counted
// intersections from memberships: a server -> dimension -> herd index, and
// each secondary herd's intersection with a main herd by string-set
// lookups. Kept as the oracle.
func referenceCorrelate(mined *herd.Result, opts Options) *Result {
	opts = opts.normalized()
	membership := make(map[string]map[string]*herd.ASH)
	add := func(herds []herd.ASH) {
		for i := range herds {
			for _, s := range herds[i].Servers {
				if membership[s] == nil {
					membership[s] = make(map[string]*herd.ASH)
				}
				membership[s][herds[i].Dimension] = &herds[i]
			}
		}
	}
	add(mined.Main)
	for _, herds := range mined.Secondary {
		add(herds)
	}
	dims := slices.Sorted(maps.Keys(mined.Secondary))
	scores := make(map[string]*ServerScore)
	for i := range mined.Main {
		mainHerd := &mined.Main[i]
		memberSet := make(map[string]struct{}, len(mainHerd.Servers))
		for _, s := range mainHerd.Servers {
			memberSet[s] = struct{}{}
		}
		inters := make(map[*herd.ASH]int)
		for _, server := range mainHerd.Servers {
			var entry *ServerScore
			for _, dim := range dims {
				secHerd := membership[server][dim]
				if secHerd == nil {
					continue
				}
				inter, ok := inters[secHerd]
				if !ok {
					for _, s := range secHerd.Servers {
						if _, in := memberSet[s]; in {
							inter++
						}
					}
					inters[secHerd] = inter
				}
				if inter < 2 {
					continue
				}
				if entry == nil {
					entry = &ServerScore{Server: server, MainHerd: mainHerd}
					scores[server] = entry
				}
				entry.Score += secHerd.Density * mainHerd.Density *
					stats.Sigma(float64(inter), opts.Mu, opts.Beta)
				entry.Dimensions = append(entry.Dimensions, dim)
			}
		}
	}
	byMain := make(map[*herd.ASH][]string)
	for server, sc := range scores {
		if sc.Score >= opts.Threshold {
			byMain[sc.MainHerd] = append(byMain[sc.MainHerd], server)
		}
	}
	res := &Result{Scores: scores}
	for mainHerd, servers := range byMain {
		if len(servers) < 2 {
			continue
		}
		sort.Strings(servers)
		maxScore := 0.0
		for _, s := range servers {
			maxScore = max(maxScore, scores[s].Score)
		}
		res.Herds = append(res.Herds, SuspiciousASH{MainHerd: mainHerd, Servers: servers, Score: maxScore})
	}
	sort.Slice(res.Herds, func(i, j int) bool { return res.Herds[i].Servers[0] < res.Herds[j].Servers[0] })
	return res
}

// randomHerds partitions a random subset of servers into disjoint herds of
// 2-16 sorted members with random densities, as one dimension's miner does.
func randomHerds(rng *rand.Rand, dim string, servers []string) []herd.ASH {
	pool := slices.Clone(servers)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:len(pool)*(1+rng.Intn(4))/4]
	var herds []herd.ASH
	for len(pool) >= 2 {
		n := min(len(pool), 2+rng.Intn(15))
		members := slices.Sorted(slices.Values(pool[:n]))
		pool = pool[n:]
		herds = append(herds, herd.ASH{Dimension: dim, ID: len(herds), Servers: members, Density: 0.05 + 0.95*rng.Float64()})
	}
	return herds
}

// Counting intersections from memberships must reproduce the string-set
// version exactly: the same scores to the bit, contributing dimensions and
// suspicious herds, over random disjoint herds in four secondary dimensions.
func TestCorrelateMatchesStringSets(t *testing.T) {
	servers := make([]string, 300)
	for i := range servers {
		servers[i] = fmt.Sprintf("s%03d.com", i)
	}
	scored, herds := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		secondary := make(map[string][]herd.ASH)
		for _, dim := range []string{"d4", "d1", "d3", "d2"} {
			secondary[dim] = randomHerds(rng, dim, servers)
		}
		mined := minedResult(randomHerds(rng, similarity.DimClient, servers), secondary)
		for _, threshold := range []float64{0.01, 0.8} {
			opts := Options{Threshold: threshold}
			got, want := Correlate(mined, opts), referenceCorrelate(mined, opts)
			if len(got.Scores) != len(want.Scores) {
				t.Fatalf("seed %d: %d scores, want %d", seed, len(got.Scores), len(want.Scores))
			}
			for s, w := range want.Scores {
				g := got.Scores[s]
				if g == nil || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
					!slices.Equal(g.Dimensions, w.Dimensions) || g.MainHerd != w.MainHerd {
					t.Fatalf("seed %d: score of %s = %+v, want %+v", seed, s, g, w)
				}
			}
			if !slices.EqualFunc(got.Herds, want.Herds, func(a, b SuspiciousASH) bool {
				return a.MainHerd == b.MainHerd && slices.Equal(a.Servers, b.Servers) &&
					math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) {
				t.Fatalf("seed %d threshold %g: herds\n got %+v\nwant %+v", seed, threshold, got.Herds, want.Herds)
			}
			scored, herds = scored+len(want.Scores), herds+len(want.Herds)
		}
	}
	if scored < 500 || herds < 50 {
		t.Fatalf("only %d scores and %d herds compared: the fixture is too sparse", scored, herds)
	}
}
