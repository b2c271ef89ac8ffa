package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"smash/internal/graph"
	"smash/internal/sparse"
	"smash/internal/trace"
)

// randomFileIndex builds a seeded index whose servers mix every kind of URI
// file the file dimension distinguishes: short names drawn with a skew (a
// few are on most servers, so a small fan-out cap skips them), long names
// shared verbatim, long names that are permutations of one another (cosine
// 1 without being equal), long names unlike anything else, and servers
// that have long names only.
func randomFileIndex(seed int64, servers int) *trace.Index {
	rng := rand.New(rand.NewSource(seed))
	permuted := func(base string) string {
		b := []byte(base)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return string(b)
	}
	bases := []string{
		"a1b2c3d4e5f6g7h8i9j0k1l2m3n4o5p6",
		"zzzzyyyyxxxxwwwwvvvvuuuuttttssss",
		"q9w8e7r6t5y4u3i2o1p0q9w8e7r6t5y4u3",
	}
	var long []string
	for _, base := range bases {
		long = append(long, base+".php") // shared verbatim
		for i := 0; i < 3; i++ {
			long = append(long, permuted(base)+".php")
		}
	}
	for i := 0; i < 4; i++ { // similar to nothing
		long = append(long, fmt.Sprintf("%032d.bin", rng.Int63()))
	}
	tr := &trace.Trace{}
	add := func(server int, file string) {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: time.Unix(0, 0), Client: "c", Host: fmt.Sprintf("s%03d.com", server),
			ServerIP: "1.1.1.1", Path: "/x/" + file, Status: 200,
		})
	}
	for s := 0; s < servers; s++ {
		kind := rng.Intn(4) // 0: long only, 1: short only, 2-3: both
		if kind != 0 {
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				f := rng.Intn(30)
				if rng.Intn(2) == 0 {
					f = rng.Intn(3) // hub files
				}
				add(s, fmt.Sprintf("f%d.php", f))
			}
		}
		if kind != 1 {
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				add(s, long[rng.Intn(len(long))])
			}
		}
	}
	return trace.BuildIndex(tr)
}

// referenceFileGraph is the file dimension by brute force and by strings:
// every server pair that shares a file token under the fan-out cap is
// scored with the public ServerFileSim over the servers' file name lists
// and added with AddEdge, in (a, b) order. Long names are grouped into the
// connected components of the cosine relation by naive label merging.
func referenceFileGraph(idx *trace.Index, opts Options) *graph.Graph {
	opts = opts.normalized()
	nodes := idx.Nodes()
	n := len(nodes.Names)
	files := make([][]string, n)
	longSet := make(map[string]bool)
	for id, info := range nodes.Infos {
		files[id] = info.FileList()
		for _, f := range files[id] {
			if len(f) > opts.LenThreshold {
				longSet[f] = true
			}
		}
	}
	var long []string
	for f := range longSet {
		long = append(long, f)
	}
	sort.Strings(long)
	group := make(map[string]int)
	for i, f := range long {
		group[f] = i
	}
	for changed := true; changed; {
		changed = false
		for _, f := range long {
			for _, g := range long {
				if CharCosine(f, g) > opts.CosineThreshold && group[f] != group[g] {
					group[f], group[g] = min(group[f], group[g]), min(group[f], group[g])
					changed = true
				}
			}
		}
	}
	tokens := make([]map[string]bool, n)
	fanout := make(map[string]int)
	for id := range files {
		tokens[id] = make(map[string]bool)
		for _, f := range files[id] {
			token := "file:" + f
			if longSet[f] {
				token = fmt.Sprintf("group:%d", group[f])
			}
			if !tokens[id][token] {
				tokens[id][token] = true
				fanout[token]++
			}
		}
	}
	g := graph.New(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			candidate := false
			for token := range tokens[a] {
				if tokens[b][token] && (opts.MaxFanout == 0 || fanout[token] <= opts.MaxFanout) {
					candidate = true
				}
			}
			if !candidate {
				continue
			}
			sim := ServerFileSim(files[a], files[b], opts.LenThreshold, opts.CosineThreshold)
			if sim >= opts.MinSimilarity {
				_ = g.AddEdge(a, b, sim)
			}
		}
	}
	return g
}

type neighbor struct {
	v    int
	bits uint64
}

func adjacency(g *graph.Graph, u int) []neighbor {
	var out []neighbor
	g.Neighbors(u, func(v int, w float64) { out = append(out, neighbor{v, math.Float64bits(w)}) })
	return out
}

// BuildFileGraph scores most pairs from integers alone (the co-occurrence
// count plus the shared files the fan-out cap skipped). That must give
// exactly the edges, the bit-identical weights and the adjacency order of
// the string-based brute force, with and without over-cap files.
func TestBuildFileGraphMatchesBruteForce(t *testing.T) {
	edges := 0
	for seed := int64(1); seed <= 6; seed++ {
		idx := randomFileIndex(seed, 60)
		for _, maxFanout := range []int{-1, 3, 500} {
			opts := Options{MaxFanout: maxFanout}
			got, want := BuildFileGraph(idx, opts).G, referenceFileGraph(idx, opts)
			if got.EdgeCount() != want.EdgeCount() {
				t.Errorf("seed %d cap %d: %d edges, want %d", seed, maxFanout, got.EdgeCount(), want.EdgeCount())
			}
			if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
				t.Errorf("seed %d cap %d: total weight %v, want %v", seed, maxFanout, got.TotalWeight(), want.TotalWeight())
			}
			for u := 0; u < want.N(); u++ {
				g, w := adjacency(got, u), adjacency(want, u)
				if !slices.Equal(g, w) {
					t.Fatalf("seed %d cap %d: node %d adjacency\n got %v\nwant %v", seed, maxFanout, u, g, w)
				}
			}
			edges += want.EdgeCount()
		}
	}
	if edges < 1000 {
		t.Fatalf("only %d edges compared: the fixture is too sparse to prove anything", edges)
	}
}

// The quotient table holds the divisions themselves: every lookup, and so
// every SetSim, has the bits of the float expression it replaced.
func TestQuotientMatchesDivision(t *testing.T) {
	for n := 0; n <= 100; n++ {
		for i := 0; i <= n+2; i++ {
			if got, want := quotient(i, n), float64(i)/float64(n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("quotient(%d, %d) = %v, want %v", i, n, got, want)
			}
		}
	}
	old := func(inter, sizeA, sizeB int) float64 {
		if sizeA == 0 || sizeB == 0 || inter == 0 {
			return 0
		}
		i := float64(inter)
		return (i / float64(sizeA)) * (i / float64(sizeB))
	}
	for na := 0; na <= 100; na++ {
		for nb := 0; nb <= 100; nb++ {
			for i := 0; i <= min(na, nb); i++ {
				if got, want := SetSim(i, na, nb), old(i, na, nb); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("SetSim(%d, %d, %d) = %v, want %v", i, na, nb, got, want)
				}
			}
		}
	}
}

// hubFileIndex builds a seeded index of short file names only, where three
// hub files sit on about a third of the servers each: under a cap of 30
// some servers have hub files skipped and others none.
func hubFileIndex(seed int64, servers int) *trace.Index {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	add := func(server int, file string) {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: time.Unix(0, 0), Client: "c", Host: fmt.Sprintf("s%03d.com", server),
			ServerIP: "1.1.1.1", Path: "/x/" + file, Status: 200,
		})
	}
	for s := 0; s < servers; s++ {
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			add(s, fmt.Sprintf("f%d.php", rng.Intn(40)))
		}
		for hub := 0; hub < 3; hub++ {
			if rng.Intn(3) == 0 {
				add(s, fmt.Sprintf("hub%d.css", hub))
			}
		}
	}
	return trace.BuildIndex(tr)
}

// perPairFileGraph is the file dimension's exact branch as it was before
// the row scorer: one SharedSkipped call and two divisions per candidate
// pair, one AddEdge per kept edge. Kept as the oracle for indexes without
// long names.
func perPairFileGraph(idx *trace.Index, opts Options) *graph.Graph {
	opts = opts.normalized()
	nodes := idx.Nodes()
	inc := sparse.NewIncidence(len(nodes.Infos))
	nFiles := make([]float64, len(nodes.Infos))
	for id, info := range nodes.Infos {
		nFiles[id] = float64(len(info.Files))
		for f := range info.Files {
			inc.Set(id, uint64(f))
		}
	}
	g := graph.New(len(nodes.Infos))
	inc.CoOccurrence(opts.MaxFanout, func(a int, partners, counts []int32) {
		for _, p := range partners {
			exact := float64(int(counts[p]) + inc.SharedSkipped(a, int(p)))
			if sim := (exact / nFiles[a]) * (exact / nFiles[p]); sim > 0 && sim >= opts.MinSimilarity {
				_ = g.AddEdge(a, int(p), sim)
			}
		}
	})
	return g
}

// The file scorer skips SharedSkipped for rows the cap skipped nothing of
// and reads its fractions from the quotient table: bit for bit the per-pair
// form, on rows with and without skipped hub files.
func TestFileScorerMatchesPerPair(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		idx := hubFileIndex(seed, 150)
		hub, clean := 0, 0
		for _, info := range idx.Nodes().Infos {
			if slices.ContainsFunc(info.FileList(), func(f string) bool { return strings.HasPrefix(f, "hub") }) {
				hub++
			} else {
				clean++
			}
		}
		if hub == 0 || clean == 0 {
			t.Fatalf("seed %d: %d servers with hub files, %d without: the fixture needs both", seed, hub, clean)
		}
		for _, maxFanout := range []int{30, -1} {
			opts := Options{MaxFanout: maxFanout}
			got, want := BuildFileGraph(idx, opts).G, perPairFileGraph(idx, opts)
			if want.EdgeCount() < 100 {
				t.Fatalf("seed %d cap %d: only %d edges: the fixture is too sparse", seed, maxFanout, want.EdgeCount())
			}
			if math.Float64bits(got.TotalWeight()) != math.Float64bits(want.TotalWeight()) {
				t.Errorf("seed %d cap %d: total weight %v, want %v", seed, maxFanout, got.TotalWeight(), want.TotalWeight())
			}
			for u := 0; u < want.N(); u++ {
				if g, w := adjacency(got, u), adjacency(want, u); !slices.Equal(g, w) {
					t.Fatalf("seed %d cap %d: node %d adjacency\n got %v\nwant %v", seed, maxFanout, u, g, w)
				}
			}
		}
	}
}

// The file graph's allocations must follow the number of servers, not the
// number of candidate pairs: no per-pair name resolution, file list or
// sort, and the edges collected in chunks and laid out once.
func TestBuildFileGraphAllocsIndependentOfPairs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold on production builds")
	}
	const servers = 300
	tr := &trace.Trace{}
	for s := 0; s < servers; s++ {
		for f := 0; f < 4; f++ { // everyone shares four files: servers²/2 pairs
			tr.Requests = append(tr.Requests, trace.Request{
				Time: time.Unix(0, 0), Client: "c", Host: fmt.Sprintf("s%03d.com", s),
				ServerIP: "1.1.1.1", Path: fmt.Sprintf("/f%d.php", f), Status: 200,
			})
		}
	}
	idx := trace.BuildIndex(tr)
	pairs := BuildFileGraph(idx, Options{}).G.EdgeCount() // warms the pools
	if want := servers * (servers - 1) / 2; pairs != want {
		t.Fatalf("fixture has %d edges, want %d", pairs, want)
	}
	allocs := testing.AllocsPerRun(5, func() { BuildFileGraph(idx, Options{}) })
	if allocs > servers {
		t.Errorf("BuildFileGraph = %.0f allocs for %d servers and %d pairs, want <= %d", allocs, servers, pairs, servers)
	}
}
