// Package graph provides the weighted undirected graph model and the Louvain
// community-detection algorithm (Blondel, Guillaume, Lambiotte, Lefebvre,
// "Fast unfolding of communities in large networks", J. Stat. Mech. 2008)
// that SMASH uses to extract Associated Server Herds from per-dimension
// similarity graphs (§III-B1 of the paper).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"smash/internal/stats"
)

// Graph is a weighted undirected graph over nodes 0..n-1. Parallel AddEdge
// calls for the same pair accumulate weight.
//
// Node u's adjacency is the parallel pair to[u] (neighbours) and w[u]
// (weights): 12 bytes a half-edge, where one slice of {int32, float64}
// structs would pad each to 16.
type Graph struct {
	to        [][]int32
	w         [][]float64
	selfLoop  []float64
	sumWeight float64 // sum of all edge weights, each undirected edge once
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{
		to:       make([][]int32, n),
		w:        make([][]float64, n),
		selfLoop: make([]float64, n),
	}
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.to) }

// AddEdge adds weight w between u and v. Self-edges are stored as self-loops.
// Adding an edge with w <= 0 or out-of-range endpoints returns an error.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= len(g.to) || v < 0 || v >= len(g.to) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.to))
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge (%d,%d) weight %g must be positive", u, v, w)
	}
	if u == v {
		g.selfLoop[u] += w
		g.sumWeight += w
		return nil
	}
	g.to[u] = append(g.to[u], int32(v))
	g.w[u] = append(g.w[u], w)
	g.to[v] = append(g.to[v], int32(u))
	g.w[v] = append(g.w[v], w)
	g.sumWeight += w
	return nil
}

// builderChunk is the number of edges per Builder buffer chunk: growth
// never copies and over-allocates by less than one chunk (64 KiB).
const builderChunk = 4096

type pendingEdge struct {
	u, v int32
	w    float64
}

// Builder collects a graph's edges and lays its adjacency out in one pass:
// two flat backing arrays sliced per node, instead of growing slices per
// node. Graph returns exactly the graph that New(n) followed by the same
// AddEdge sequence produces — same adjacency order per node (on which
// Degree's and Louvain's float sums depend), same TotalWeight bits — at
// two allocations for the adjacency instead of several per node.
type Builder struct {
	g      *Graph
	degree []int32
	chunks [][]pendingEdge
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{g: New(n), degree: make([]int32, n)}
}

// AddEdge records weight w between u and v, under Graph.AddEdge's contract.
func (b *Builder) AddEdge(u, v int, w float64) error {
	if u == v || u < 0 || u >= len(b.degree) || v < 0 || v >= len(b.degree) || w <= 0 {
		return b.g.AddEdge(u, v, w) // a self-loop, or the error
	}
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == builderChunk {
		b.chunks = append(b.chunks, make([]pendingEdge, 0, builderChunk))
		last++
	}
	b.chunks[last] = append(b.chunks[last], pendingEdge{u: int32(u), v: int32(v), w: w})
	b.degree[u]++
	b.degree[v]++
	b.g.sumWeight += w
	return nil
}

// Graph returns the built graph. The builder must not be used afterwards.
func (b *Builder) Graph() *Graph {
	g := b.g
	// b.degree becomes each node's fill cursor into the flat arrays: first
	// the start of its run, then, once every edge is laid out, its end.
	total := int32(0)
	for u, d := range b.degree {
		b.degree[u] = total
		total += d
	}
	to, w := make([]int32, total), make([]float64, total)
	for i, chunk := range b.chunks {
		for _, e := range chunk {
			k := b.degree[e.u]
			to[k], w[k] = e.v, e.w
			b.degree[e.u]++
			k = b.degree[e.v]
			to[k], w[k] = e.u, e.w
			b.degree[e.v]++
		}
		b.chunks[i] = nil // laid out: let the collector have it now
	}
	start := int32(0)
	for u, end := range b.degree {
		// Capacity ends with the node's own run, so a later AddEdge on the
		// graph reallocates that node instead of overwriting its neighbour.
		g.to[u], g.w[u] = to[start:end:end], w[start:end:end]
		start = end
	}
	b.chunks = nil
	return g
}

// Degree returns the weighted degree of node u: the sum of incident edge
// weights, with self-loops counted twice (the Louvain convention).
func (g *Graph) Degree(u int) float64 {
	d := 2 * g.selfLoop[u]
	for _, w := range g.w[u] {
		d += w
	}
	return d
}

// EdgeCount returns the number of stored undirected non-loop edge entries
// (parallel edges counted separately).
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.to {
		total += len(a)
	}
	return total / 2
}

// TotalWeight returns the sum of all edge weights (each undirected edge
// counted once, self-loops once).
func (g *Graph) TotalWeight() float64 { return g.sumWeight }

// Neighbors calls fn for each (neighbor, weight) pair of u. A neighbor may
// be reported multiple times if parallel edges were added.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	ws := g.w[u]
	for i, v := range g.to[u] {
		fn(int(v), ws[i])
	}
}

// ConnectedComponents returns the node sets of the graph's connected
// components (ignoring isolated self-loops-only semantics: every node is in
// exactly one component). Components and their members are sorted.
func (g *Graph) ConnectedComponents() [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int
	next := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.to[u] {
				if comp[v] < 0 {
					comp[v] = next
					stack = append(stack, int(v))
				}
			}
		}
		next++
	}
	out := make([][]int, next)
	for v, c := range comp {
		out[c] = append(out[c], v)
	}
	return out
}

// Modularity computes the Newman modularity Q of a community assignment
// (nodes with the same label are one community), Q in [-1, 1].
func (g *Graph) Modularity(community []int) float64 {
	m2 := 2 * g.sumWeight
	if m2 == 0 {
		return 0
	}
	in := make(map[int]float64)  // community -> 2*intra-community weight
	tot := make(map[int]float64) // community -> sum of member degrees
	for u, tos := range g.to {
		cu := community[u]
		tot[cu] += g.Degree(u)
		in[cu] += 2 * g.selfLoop[u]
		ws := g.w[u]
		for i, v := range tos {
			if community[v] == cu {
				in[cu] += ws[i] // visited from both sides -> counts twice
			}
		}
	}
	q := 0.0
	for c, w := range in {
		t := tot[c]
		q += w/m2 - (t/m2)*(t/m2)
	}
	return q
}

// Louvain runs the multi-level Louvain method and returns the community
// label of each node. Labels are compacted to 0..k-1. The node visit order
// is shuffled deterministically from seed, making results reproducible for a
// fixed (graph, seed) pair.
func (g *Graph) Louvain(seed int64) []int {
	n := g.N()
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = i
	}
	work := g
	level := 0
	for {
		moved, local := work.louvainLocal(stats.DeriveSeed(seed, fmt.Sprintf("louvain-%d", level)))
		// Project the local labels back onto the original nodes.
		for i := range assignment {
			assignment[i] = local[assignment[i]]
		}
		if !moved {
			break
		}
		var k int
		work, k = work.aggregate(local)
		if k == work.N() && k == n {
			break
		}
		level++
		if level > 64 { // defensive bound; Louvain converges in a few levels
			break
		}
	}
	return compactLabels(assignment)
}

// louvainLocal performs one local-move phase. It returns whether any node
// changed community and the (compacted) community label of each node.
//
// The per-node neighbor-community weights accumulate into a dense scratch
// array indexed by community id (community ids stay < n), with a touched
// list swept in sorted order — the candidate visit order is therefore the
// same sorted-community order the original map-based implementation used,
// keeping results identical while removing all hashing and allocation from
// the innermost loop.
func (g *Graph) louvainLocal(seed int64) (bool, []int) {
	n := g.N()
	community := make([]int, n)
	degree := make([]float64, n)
	tot := make([]float64, n) // community -> sum of member degrees
	for i := 0; i < n; i++ {
		community[i] = i
		degree[i] = g.Degree(i)
		tot[i] = degree[i]
	}
	m2 := 2 * g.sumWeight
	if m2 == 0 {
		return false, compactLabels(community)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := stats.NewRand(seed, "order")
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	neighW := make([]float64, n) // community -> weight from u (dense scratch)
	seen := make([]bool, n)      // community touched by u's neighbors
	touched := make([]int32, 0, 64)
	improvedAny := false
	for pass := 0; pass < 100; pass++ {
		improved := false
		for _, u := range order {
			cu := community[u]
			// Weight from u to each neighboring community.
			tos, ws := g.to[u], g.w[u]
			ws = ws[:len(tos)]
			for i, v := range tos {
				c := community[v]
				if !seen[c] {
					seen[c] = true
					touched = append(touched, int32(c))
				}
				neighW[c] += ws[i]
			}
			// Remove u from its community.
			tot[cu] -= degree[u]
			// Best community by modularity gain. The constant parts of
			// the gain cancel, so compare k_i,in - tot_c*k_i/m2.
			bestC, bestGain := cu, neighW[cu]-tot[cu]*degree[u]/m2
			// Deterministic iteration: candidates in sorted order.
			slices.Sort(touched)
			for _, c32 := range touched {
				c := int(c32)
				gain := neighW[c] - tot[c]*degree[u]/m2
				if gain > bestGain+1e-12 {
					bestC, bestGain = c, gain
				}
			}
			tot[bestC] += degree[u]
			if bestC != cu {
				community[u] = bestC
				improved = true
				improvedAny = true
			}
			for _, c := range touched {
				neighW[c] = 0
				seen[c] = false
			}
			touched = touched[:0]
		}
		if !improved {
			break
		}
	}
	return improvedAny, compactLabels(community)
}

// aggregate builds the community super-graph: one node per community, edge
// weights summed, intra-community weight folded into self-loops. It returns
// the new graph and the number of communities.
//
// Like louvainLocal it accumulates per community into a dense scratch with
// a sorted touched list, so every super-node's adjacency is in ascending
// neighbour order and every float sum has one fixed order: the super-graph,
// and with it each Louvain level past the first, is the same on every run.
func (g *Graph) aggregate(community []int) (*Graph, int) {
	groups := Communities(community)
	k := len(groups)
	agg := NewBuilder(k)
	neighW := make([]float64, k) // community -> weight from c (dense scratch)
	var touched []int32
	for c, members := range groups {
		for _, u := range members {
			if g.selfLoop[u] > 0 {
				_ = agg.AddEdge(c, c, g.selfLoop[u]) // in range, positive
			}
		}
		for _, u := range members {
			ws := g.w[u]
			for i, v := range g.to[u] {
				// Each undirected edge once: intra-community edges from
				// their smaller endpoint, the rest from the smaller
				// community.
				switch cv := community[v]; {
				case cv == c:
					if int(v) > u {
						_ = agg.AddEdge(c, c, ws[i])
					}
				case cv > c:
					if neighW[cv] == 0 { // edge weights are positive
						touched = append(touched, int32(cv))
					}
					neighW[cv] += ws[i]
				}
			}
		}
		slices.Sort(touched)
		for _, cv := range touched {
			_ = agg.AddEdge(c, int(cv), neighW[cv])
			neighW[cv] = 0
		}
		touched = touched[:0]
	}
	return agg.Graph(), k
}

// compactLabels renumbers arbitrary non-negative labels to 0..k-1
// preserving first-seen order.
func compactLabels(labels []int) []int {
	top := -1
	for _, l := range labels {
		if l > top {
			top = l
		}
	}
	remap := make([]int32, top+1) // label -> new id + 1; 0 = unseen
	out := make([]int, len(labels))
	next := int32(0)
	for i, l := range labels {
		if remap[l] == 0 {
			next++
			remap[l] = next
		}
		out[i] = int(remap[l] - 1)
	}
	return out
}

// Communities groups node ids by community label; members are in ascending
// node order, communities ordered by label. The groups share one backing
// array.
func Communities(labels []int) [][]int {
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	size := make([]int, k)
	for _, l := range labels {
		size[l]++
	}
	out := make([][]int, k)
	flat := make([]int, len(labels))
	off := 0
	for l, n := range size {
		out[l] = flat[off : off : off+n]
		off += n
	}
	for v, l := range labels {
		out[l] = append(out[l], v)
	}
	return out
}

// densityScratch is SubgraphDensity's pooled pair of stamp arrays over node
// ids. A slot holds the stamp of the last use that wrote it, so nothing is
// cleared between calls; stamps only grow, and the arrays are zeroed when
// the counter would wrap.
type densityScratch struct {
	member []uint32 // stamp = in the node set (stamp+1: already swept)
	seen   []uint32 // stamp = already counted from the node being swept
	stamp  uint32
}

var densityPool = sync.Pool{New: func() any { return new(densityScratch) }}

// SubgraphDensity computes the density of the node set within g as defined
// by the paper's w(C): 2|e| / (|v|·(|v|-1)), where |e| counts distinct
// member pairs connected by at least one edge. Singleton sets have density 0.
func (g *Graph) SubgraphDensity(members []int) float64 {
	v := len(members)
	if v < 2 {
		return 0
	}
	s := densityPool.Get().(*densityScratch)
	defer densityPool.Put(s)
	if len(s.member) < len(g.to) {
		s.member = make([]uint32, len(g.to))
		s.seen = make([]uint32, len(g.to))
		s.stamp = 0
	}
	if uint64(s.stamp)+uint64(v)+2 > math.MaxUint32 {
		clear(s.member)
		clear(s.seen)
		s.stamp = 0
	}
	pending, swept := s.stamp+1, s.stamp+2
	s.stamp += 2
	for _, u := range members {
		s.member[u] = pending
	}
	// Each connected pair is counted from its smaller endpoint, once: the
	// seen stamp skips parallel edges, the swept mark a member listed twice.
	pairs := 0
	for _, u := range members {
		if s.member[u] == swept {
			continue
		}
		s.member[u] = swept
		s.stamp++
		for _, v := range g.to[u] {
			t := int(v)
			if t > u && s.member[t]-pending < 2 && s.seen[t] != s.stamp {
				s.seen[t] = s.stamp
				pairs++
			}
		}
	}
	return 2 * float64(pairs) / (float64(v) * float64(v-1))
}
