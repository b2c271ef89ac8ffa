// Package graph provides the weighted undirected graph model and the Louvain
// community-detection algorithm (Blondel, Guillaume, Lambiotte, Lefebvre,
// "Fast unfolding of communities in large networks", J. Stat. Mech. 2008)
// that SMASH uses to extract Associated Server Herds from per-dimension
// similarity graphs (§III-B1 of the paper).
//
// A similarity graph is per-window scratch: Builder lays it out from edges
// in row order into pooled fixed-size chunks, and its owner hands them back
// with Release once the herds are mined.
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
	sumWeight float64  // sum of all edge weights, each undirected edge once
	chunks    []*chunk // the pooled storage Builder laid the adjacency out in
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

// Release hands the graph's pooled storage back for later builds. The graph
// must not be used afterwards: its adjacency is gone, so a use panics
// instead of reading another graph's edges.
func (g *Graph) Release() {
	for _, c := range g.chunks {
		chunkPool.Put(c)
	}
	*g = Graph{}
}

// chunkLen is the number of half-edges in one storage chunk (96 KiB).
// Uniform chunks keep the pooled bytes close to the bytes in use, where a
// pooled per-graph arena would let every small graph hold a large one's.
const chunkLen = 8192

// chunk is the unit of pooled graph storage.
type chunk struct {
	to [chunkLen]int32
	w  [chunkLen]float64
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Builder lays a graph out from edges that arrive in row order: u <= v and
// u non-decreasing, as sparse.CoOccurrence emits pairs (partners ascending
// within a row). Graph returns exactly the graph that New(n) followed by the
// same AddEdge sequence produces — same adjacency order per node (on which
// Degree's and Louvain's float sums depend), same TotalWeight bits — with
// the row buffer and the adjacency in pooled chunks.
type Builder struct {
	g    *Graph
	low  []int32  // per node: edges from lower rows; in Graph, a fill cursor
	up   []int32  // per node: edges in its own row
	rows []*chunk // the row buffer: each edge's (v, w) in arrival order
	n    int      // edges in the row buffer
	row  int      // the row of the last edge
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{g: New(n), low: make([]int32, n), up: make([]int32, n)}
}

// AddEdge records weight w between u and v under Graph.AddEdge's contract.
// An edge out of row order returns an error.
func (b *Builder) AddEdge(u, v int, w float64) error {
	if u < b.row || v < u {
		return fmt.Errorf("graph: edge (%d,%d) out of row order after row %d", u, v, b.row)
	}
	if u == v || v >= len(b.up) || w <= 0 {
		return b.g.AddEdge(u, v, w) // a self-loop, or the error
	}
	return b.AddRow(u, []int32{int32(v)}, []float64{w}, 0)
}

// AddRow records row u's edges (u, vs[i]) of weight ws[i] that pass
// ws[i] > 0 && ws[i] >= minW, in order, in one call: the AddEdge sequence
// of the kept edges. Every partner must lie in (u, N()). A row out of
// order, or a kept edge out of range, returns an error; the row's edges
// before it stay added.
func (b *Builder) AddRow(u int, vs []int32, ws []float64, minW float64) error {
	if u < b.row {
		return fmt.Errorf("graph: row %d out of row order after row %d", u, b.row)
	}
	// The counters and the weight sum live in locals for the row: stores
	// through b would otherwise be reloaded after every edge.
	n, rows, low, sum := b.n, b.rows, b.low, b.g.sumWeight
	var c *chunk
	if n%chunkLen != 0 {
		c = rows[len(rows)-1]
	}
	var err error
	ws = ws[:len(vs)]
	for i, v := range vs {
		w := ws[i]
		if !(w > 0 && w >= minW) {
			continue
		}
		if int(v) <= u || int(v) >= len(low) {
			err = fmt.Errorf("graph: edge (%d,%d) out of row order or range [0,%d)", u, v, len(low))
			break
		}
		k := n % chunkLen
		if k == 0 {
			c = chunkPool.Get().(*chunk)
			rows = append(rows, c)
		}
		c.to[k], c.w[k] = v, w
		n++
		low[v]++
		sum += w
	}
	if n > b.n {
		b.up[u] += int32(n - b.n)
		b.row = u
	}
	b.n, b.rows, b.g.sumWeight = n, rows, sum
	return err
}

// Graph returns the built graph and hands the row buffer back to the pool.
// The builder must not be used afterwards.
//
// Node x's adjacency is its lower neighbours, rows ascending, then its own
// row: the order the AddEdge sequence gives. Every slot is written, so
// pooled chunks need no clearing.
func (b *Builder) Graph() *Graph {
	g := b.g
	// One contiguous run of deg(x) slots per node that never straddles two
	// chunks; a node with more than a chunk's worth gets arrays of its own.
	var out *chunk
	used := chunkLen
	for x, low := range b.low {
		d := int(low + b.up[x])
		b.low[x] = 0
		switch {
		case d == 0:
			continue
		case d > chunkLen:
			g.to[x], g.w[x] = make([]int32, d), make([]float64, d)
			continue
		case used+d > chunkLen:
			out, used = chunkPool.Get().(*chunk), 0
			g.chunks = append(g.chunks, out)
		}
		// Capacity ends with the run, so a later AddEdge on the graph
		// reallocates the node instead of overwriting its neighbour.
		g.to[x], g.w[x] = out.to[used:used+d:used+d], out.w[used:used+d:used+d]
		used += d
	}
	// Rows ascend, so when row u is reached every lower neighbour of u has
	// been scattered into its run and the cursor low[u] is where the row
	// itself goes. The cursors and the adjacency are read through locals:
	// the scatter's stores would otherwise force b.low, g.to and g.w to be
	// reloaded.
	low, to, wt := b.low, g.to, g.w
	i := 0
	for u, up := range b.up {
		at := int(low[u])
		for left := int(up); left > 0; {
			c, k := b.rows[i/chunkLen], i%chunkLen
			m := min(left, chunkLen-k)
			vs, ws := c.to[k:k+m], c.w[k:k+m]
			copy(to[u][at:], vs)
			copy(wt[u][at:], ws)
			for j, v := range vs {
				p := low[v]
				to[v][p], wt[v][p] = int32(u), ws[j]
				low[v] = p + 1
			}
			i, at, left = i+m, at+m, left-m
		}
	}
	for _, c := range b.rows {
		chunkPool.Put(c)
	}
	b.rows = nil
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
// fixed (graph, seed) pair. The super-graphs it builds are released level by
// level; g itself is left as it was.
func (g *Graph) Louvain(seed int64) []int {
	n := g.N()
	assignment := make([]int, n)
	for i := range assignment {
		assignment[i] = i
	}
	var scratch louvainScratch
	work := g
	level := 0
	for {
		moved, local := scratch.local(work, stats.DeriveSeed(seed, fmt.Sprintf("louvain-%d", level)))
		// Project the local labels back onto the original nodes.
		for i := range assignment {
			assignment[i] = local[assignment[i]]
		}
		if !moved {
			break
		}
		next, k := work.aggregate(local)
		if work != g {
			work.Release()
		}
		work = next
		if k == n {
			break
		}
		level++
		if level > 64 { // defensive bound; Louvain converges in a few levels
			break
		}
	}
	if work != g {
		work.Release()
	}
	return compactLabels(assignment)
}

// louvainScratch is the local-move state, sized once per Louvain call.
type louvainScratch struct {
	community, order []int
	degree           []float64
	tot              []float64 // community -> sum of member degrees
	neighW           []float64 // community -> weight from u; 0 = untouched
	touched          []int32
}

// local performs one local-move phase on g. It returns whether any node
// changed community and the (compacted) community label of each node.
//
// The per-node neighbor-community weights accumulate into a dense scratch
// array indexed by community id (community ids stay < n), with a touched
// list of the communities seen: no hashing or allocation in the innermost
// loop. The choice is that of an ascending scan over the touched
// communities which moves u only to one beating the best so far by more
// than 1e-12.
func (s *louvainScratch) local(g *Graph, seed int64) (bool, []int) {
	n := g.N()
	if cap(s.community) < n {
		s.community, s.order = make([]int, n), make([]int, n)
		s.degree, s.tot, s.neighW = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	community, order, degree := s.community[:n], s.order[:n], s.degree[:n]
	tot, neighW := s.tot[:n], s.neighW[:n]
	for i := 0; i < n; i++ {
		community[i] = i
		degree[i] = g.Degree(i)
		tot[i] = degree[i]
	}
	m2 := 2 * g.sumWeight
	if m2 == 0 {
		return false, compactLabels(community)
	}

	for i := range order {
		order[i] = i
	}
	rng := stats.NewRand(seed, "order")
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	touched := s.touched[:0]
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
				if neighW[c] == 0 { // edge weights are positive
					touched = append(touched, int32(c))
				}
				neighW[c] += ws[i]
			}
			// Remove u from its community.
			tot[cu] -= degree[u]
			// Best community by modularity gain. The constant parts of
			// the gain cancel, so compare k_i,in - tot_c*k_i/m2.
			bestC, bestGain := cu, neighW[cu]-tot[cu]*degree[u]/m2
			// When the top candidate beats both staying and the runner-up
			// by the margin, the ascending scan provably ends on it, so
			// only near-ties pay for the sort.
			top, runner, topC := math.Inf(-1), math.Inf(-1), cu
			for _, c32 := range touched {
				if c := int(c32); c != cu {
					switch gain := neighW[c] - tot[c]*degree[u]/m2; {
					case gain > top:
						top, runner, topC = gain, top, c
					case gain > runner:
						runner = gain
					}
				}
			}
			switch {
			case top <= bestGain+1e-12:
				// Nothing beats staying.
			case top > runner+1e-12:
				bestC = topC
			default:
				slices.Sort(touched)
				for _, c32 := range touched {
					c := int(c32)
					gain := neighW[c] - tot[c]*degree[u]/m2
					if gain > bestGain+1e-12 {
						bestC, bestGain = c, gain
					}
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
			}
			touched = touched[:0]
		}
		if !improved {
			break
		}
	}
	s.touched = touched
	return improvedAny, compactLabels(community)
}

// aggregate builds the community super-graph: one node per community, edge
// weights summed, intra-community weight folded into self-loops. It returns
// the new graph and the number of communities.
//
// Like the local-move phase it accumulates per community into a dense
// scratch with a touched list, sorted here, so every super-node's adjacency
// is in ascending neighbour order and every float sum has one fixed order:
// the super-graph, and with it each Louvain level past the first, is the
// same on every run, and it reaches Builder in row order.
func (g *Graph) aggregate(community []int) (*Graph, int) {
	groups := Communities(community)
	k := len(groups)
	agg := NewBuilder(k)
	neighW := make([]float64, k) // community -> weight from c (dense scratch)
	var touched []int32
	for c, members := range groups {
		// The community's self-loop and the running total weight are
		// summed in locals, in the order AddEdge(c, c, ·) would add them,
		// and stored once.
		loop, sum := 0.0, agg.g.sumWeight
		for _, u := range members {
			if l := g.selfLoop[u]; l > 0 {
				loop += l
				sum += l
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
						loop += ws[i]
						sum += ws[i]
					}
				case cv > c:
					if neighW[cv] == 0 { // edge weights are positive
						touched = append(touched, int32(cv))
					}
					neighW[cv] += ws[i]
				}
			}
		}
		agg.g.selfLoop[c], agg.g.sumWeight = loop, sum
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
