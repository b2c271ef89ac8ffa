// Package similarity implements the four relationship dimensions of SMASH
// (§III-B): the main client-similarity dimension (eq. 1) and the secondary
// URI-file (eqs. 2-7), IP-address-set (eq. 8) and whois dimensions. Each
// builder turns a trace.Index into a weighted server-similarity graph on
// which the herd miner runs Louvain community detection.
//
// Pairwise similarity is never computed densely: set-valued dimensions go
// through the sparse co-occurrence product (see internal/sparse), so only
// server pairs that actually share a client/IP/file/whois token are touched.
// Builders run entirely on interned ids: node ids come from the index's
// cached NodeTable (built once per index, not once per dimension) and
// features are the data plane's uint32 symbol ids, so no string is hashed
// inside a mining loop.
package similarity

import (
	"math"
	"slices"
	"sort"

	"smash/internal/graph"
	"smash/internal/sparse"
	"smash/internal/trace"
	"smash/internal/whois"
)

// Dimension names used across the pipeline. Client is the main dimension;
// the rest are secondary (§III-B).
const (
	DimClient = "client"
	DimFile   = "urifile"
	DimIP     = "ipset"
	DimWhois  = "whois"
)

// SecondaryDimensions lists the secondary dimension names in canonical order.
func SecondaryDimensions() []string {
	return []string{DimFile, DimIP, DimWhois}
}

// SetSim is the importance-weighted set similarity used by both the client
// dimension (eq. 1) and the IP dimension (eq. 8):
//
//	sim = (|A∩B|/|A|) · (|A∩B|/|B|)
//
// Two servers are similar when their common elements are important to both.
func SetSim(intersection, sizeA, sizeB int) float64 {
	if sizeA == 0 || sizeB == 0 || intersection == 0 {
		return 0
	}
	return quotient(intersection, sizeA) * quotient(intersection, sizeB)
}

// quotientMax is the largest denominator quotient serves from its table.
const quotientMax = 64

// quotients holds float64(i)/float64(n) for 0 <= i <= n <= quotientMax at
// n(n+1)/2 + i. The entries are those divisions themselves, so a lookup is
// bit-identical to dividing; a multiplication by 1/n would not be.
var quotients = func() (q [(quotientMax + 1) * (quotientMax + 2) / 2]float64) {
	for n := 0; n <= quotientMax; n++ {
		for i := 0; i <= n; i++ {
			q[n*(n+1)/2+i] = float64(i) / float64(n)
		}
	}
	return q
}()

// quotient returns float64(i)/float64(n): the similarity equations' set
// fractions, whose denominators are small set sizes, come from a table.
func quotient(i, n int) float64 {
	if 0 <= i && i <= n && n <= quotientMax {
		return quotients[n*(n+1)/2+i]
	}
	return float64(i) / float64(n)
}

// DefaultLenThreshold is the paper's len parameter (Appendix B): filenames
// of at most 25 characters are compared exactly; longer (likely obfuscated)
// names are compared by character distribution.
const DefaultLenThreshold = 25

// DefaultCosineThreshold is the paper's cosine cutoff for long filenames.
const DefaultCosineThreshold = 0.8

// FileNameSim implements eqs. (2)-(6): 1 if the two URI files are "similar",
// else 0. Short names (<= lenThreshold) must match exactly; long names are
// similar when the cosine of their byte-frequency distributions exceeds
// cosThreshold.
func FileNameSim(fi, fj string, lenThreshold int, cosThreshold float64) float64 {
	if fi == fj {
		return 1
	}
	if len(fi) <= lenThreshold || len(fj) <= lenThreshold {
		return 0
	}
	if CharCosine(fi, fj) > cosThreshold {
		return 1
	}
	return 0
}

// CharCosine returns the cosine similarity of the byte-frequency vectors of
// two strings (the CharSet vectors of eq. 6).
func CharCosine(a, b string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var fa, fb [256]float64
	for i := 0; i < len(a); i++ {
		fa[a[i]]++
	}
	for i := 0; i < len(b); i++ {
		fb[b[i]]++
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := 0; i < 256; i++ {
		dot += fa[i] * fb[i]
		na += fa[i] * fa[i]
		nb += fb[i] * fb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// fileSet is one server's URI files prepared for repeated eq. (7)
// evaluations: the sorted full list plus the long-name sublist. Preparing
// once per server (not once per candidate pair) is what keeps the file
// dimension out of the profile.
type fileSet struct {
	sorted []string // all files, sorted (FileList order)
	long   []string // files longer than lenThreshold
}

func newFileSet(files []string, lenThreshold int) fileSet {
	fs := fileSet{sorted: files}
	for _, f := range files {
		if len(f) > lenThreshold {
			fs.long = append(fs.long, f)
		}
	}
	return fs
}

// serverFileSimSets implements eq. (7) over two prepared file sets: the
// product of (fraction of Si's files with a similar file on Sj) and the
// converse fraction. Exact matches are found by a sorted merge walk; only
// long names fall back to the pairwise cosine test.
func serverFileSimSets(a, b fileSet, lenThreshold int, cosThreshold float64) float64 {
	na, nb := len(a.sorted), len(b.sorted)
	if na == 0 || nb == 0 {
		return 0
	}
	// Exact intersection count via merge walk (lists are sorted and
	// deduplicated). An exact match satisfies both directions at once.
	exact := 0
	for i, j := 0, 0; i < na && j < nb; {
		switch {
		case a.sorted[i] == b.sorted[j]:
			exact++
			i++
			j++
		case a.sorted[i] < b.sorted[j]:
			i++
		default:
			j++
		}
	}
	cosMatched := func(f string, other []string) bool {
		for _, g := range other {
			if f != g && CharCosine(f, g) > cosThreshold {
				return true
			}
		}
		return false
	}
	count := func(x, y fileSet) int {
		m := exact
		// Long names without an exact partner may still match by cosine.
		for i, j := 0, 0; i < len(x.long); i++ {
			f := x.long[i]
			for j < len(y.sorted) && y.sorted[j] < f {
				j++
			}
			if j < len(y.sorted) && y.sorted[j] == f {
				continue // already counted as exact
			}
			if cosMatched(f, y.long) {
				m++
			}
		}
		return m
	}
	return quotient(count(a, b), na) * quotient(count(b, a), nb)
}

// ServerFileSim implements eq. (7): the product of (fraction of Si's files
// that have a similar file on Sj) and the converse fraction. Inputs are
// treated as file *sets* (the paper's formulation): they need not be
// sorted, and duplicate entries collapse before the fractions are taken.
// Hot paths prepare fileSets once per server and use the internal sorted
// form instead.
func ServerFileSim(filesA, filesB []string, lenThreshold int, cosThreshold float64) float64 {
	dedup := func(files []string) []string {
		s := append([]string(nil), files...)
		sort.Strings(s)
		return slices.Compact(s)
	}
	return serverFileSimSets(
		newFileSet(dedup(filesA), lenThreshold),
		newFileSet(dedup(filesB), lenThreshold),
		lenThreshold, cosThreshold)
}

// ServerGraph is a similarity graph whose nodes are server keys.
type ServerGraph struct {
	// G is the weighted similarity graph.
	G *graph.Graph
	// Names maps node id -> server key. Shared with the index's NodeTable;
	// treat as read-only.
	Names []string
	// IDs maps server key -> node id. Shared with the index's NodeTable;
	// treat as read-only.
	IDs map[string]int
}

// newServerGraph allocates a ServerGraph over the index's cached node
// table, so node ids are deterministic (sorted server keys) and the sort
// happens once per index rather than once per dimension. G is left for the
// builder to set (pairGraph).
func newServerGraph(idx *trace.Index) (*ServerGraph, *trace.NodeTable) {
	nodes := idx.Nodes()
	return &ServerGraph{Names: nodes.Names, IDs: nodes.IDs}, nodes
}

// pairGraph is the one candidate-scoring loop behind every dimension: it
// streams the co-occurrence product of inc and hands score each row a's
// candidate partners (ascending, all > a) with the dense shared-feature
// counts, counts[p] for partner p; score fills w[i] with partners[i]'s
// similarity. The row's pairs scoring above zero and at least minSim
// become edges in one builder call. Scoring inside the sweep means neither
// the pair list nor a growing per-node adjacency is ever materialized, and
// the rows reach the builder in the order it requires. The graph's storage
// is pooled: its owner releases it once the herds are mined.
func pairGraph(inc *sparse.Incidence, maxFanout int, minSim float64, score func(a int, partners, counts []int32, w []float64)) *graph.Graph {
	b := graph.NewBuilder(inc.Rows())
	buf := make([]float64, inc.Rows())
	inc.CoOccurrence(maxFanout, func(a int, partners, counts []int32) {
		w := buf[:len(partners)]
		score(a, partners, counts, w)
		_ = b.AddRow(a, partners, w, minSim) // rows ascend, partners in (a, n): cannot fail
	})
	return b.Graph()
}

// setGraph builds a dimension whose similarity is SetSim (the eq. 1 / eq. 8
// form) over one id-keyed feature set per server; pairs sharing fewer than
// minShared features get no edge. opts must be normalized.
func setGraph(idx *trace.Index, opts Options, minShared int, set func(*trace.ServerInfo) trace.Counts) *ServerGraph {
	sg, nodes := newServerGraph(idx)
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	sizes := make([]int, len(nodes.Infos))
	for id, info := range nodes.Infos {
		features := set(info)
		sizes[id] = len(features)
		for f := range features {
			inc.Set(id, uint64(f))
		}
	}
	sg.G = pairGraph(inc, opts.MaxFanout, opts.MinSimilarity, func(a int, partners, counts []int32, w []float64) {
		for i, p := range partners {
			w[i] = 0
			if shared := int(counts[p]); shared >= minShared {
				w[i] = SetSim(shared, sizes[a], sizes[p])
			}
		}
	})
	return sg
}

// Options tunes the similarity graph builders.
type Options struct {
	// MinSimilarity is the minimum edge weight to keep (edges below it are
	// dropped, keeping the graphs sparse). Zero uses DefaultMinSimilarity.
	MinSimilarity float64
	// MaxFanout skips features (clients, IPs, file tokens, whois tokens)
	// shared by more than this many servers when generating candidate
	// pairs. Zero uses DefaultMaxFanout; negative disables the cap.
	MaxFanout int
	// LenThreshold is the filename length above which the cosine test is
	// used. Zero uses DefaultLenThreshold.
	LenThreshold int
	// CosineThreshold is the cosine cutoff for long filenames. Zero uses
	// DefaultCosineThreshold.
	CosineThreshold float64
	// MinSharedFeatures is the minimum number of shared features for a
	// pair to receive an edge. The client dimension uses 2 so that a
	// single shared visitor cannot link servers (servers visited by only
	// one client are handled by the dedicated single-client ASHs instead,
	// per Appendix C of the paper). Zero uses 1.
	MinSharedFeatures int
}

// Default thresholds. The paper keeps every nonzero-similarity edge in the
// secondary dimensions and relies on weighted Louvain modularity to
// separate weakly-attached servers, so the default cutoff is only an
// epsilon guarding numeric noise; raising it is an ablation knob (see
// bench_test.go). The main client dimension uses a stronger cutoff: eq. (1)
// demands that the common clients be important to *both* servers, and a
// popular benign server sharing two bots with a C&C pool has sim of about
// 2/|C| — noise that would otherwise bridge campaign cliques into
// sprawling benign communities. The fan-out cap mirrors the paper's IDF
// spirit for features.
const (
	DefaultMinSimilarity       = 0.01
	DefaultClientMinSimilarity = 0.1
	DefaultMaxFanout           = 500
)

func (o Options) normalized() Options {
	if o.MinSimilarity == 0 {
		o.MinSimilarity = DefaultMinSimilarity
	}
	if o.MaxFanout == 0 {
		o.MaxFanout = DefaultMaxFanout
	}
	if o.MaxFanout < 0 {
		o.MaxFanout = 0 // sparse package convention: 0 = uncapped
	}
	if o.LenThreshold == 0 {
		o.LenThreshold = DefaultLenThreshold
	}
	if o.CosineThreshold == 0 {
		o.CosineThreshold = DefaultCosineThreshold
	}
	if o.MinSharedFeatures <= 0 {
		o.MinSharedFeatures = 1
	}
	return o
}

// BuildClientGraph builds the main-dimension similarity graph: servers are
// connected with weight Client(Si,Sj) from eq. (1) when they share clients.
func BuildClientGraph(idx *trace.Index, opts Options) *ServerGraph {
	opts = opts.normalized()
	return setGraph(idx, opts, opts.MinSharedFeatures, func(s *trace.ServerInfo) trace.Counts { return s.Clients })
}

// BuildIPGraph builds the IP-address-set secondary dimension graph (eq. 8).
func BuildIPGraph(idx *trace.Index, opts Options) *ServerGraph {
	return setGraph(idx, opts.normalized(), 1, func(s *trace.ServerInfo) trace.Counts { return s.IPs })
}

// longGroupBase offsets the synthetic long-name group tokens past the file
// id space, so the two feature kinds cannot collide in one incidence.
const longGroupBase = uint64(1) << 40

// BuildFileGraph builds the URI-file secondary dimension graph. Candidate
// server pairs are generated from shared file tokens (the interned file id
// for short names, a distribution bucket for long names) and scored with
// eq. (7). Unless both servers carry long names that is O(1) per pair,
// straight from the product's count; only long-name pairs go through file
// sets, prepared once per server.
func BuildFileGraph(idx *trace.Index, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	fileNames := idx.Syms.Files.Names()

	// Long (possibly obfuscated) filenames: cluster them by cosine
	// similarity so that similar-but-unequal names map to one token.
	longNames := make(map[string][]int) // long file -> server node ids
	hasLong := make([]bool, len(nodes.Infos))
	nFiles := make([]int, len(nodes.Infos)) // |F| of eq. (7)
	for id, info := range nodes.Infos {
		nFiles[id] = len(info.Files)
		for f := range info.Files {
			name := fileNames[f]
			if len(name) > opts.LenThreshold {
				longNames[name] = append(longNames[name], id)
				hasLong[id] = true
				continue
			}
			inc.Set(id, uint64(f))
		}
	}
	if len(longNames) > 0 {
		files := make([]string, 0, len(longNames))
		for f := range longNames {
			files = append(files, f)
		}
		sort.Strings(files)
		groups := clusterLongNames(files, opts.CosineThreshold)
		for gi, members := range groups {
			token := longGroupBase + uint64(gi)
			for _, fi := range members {
				for _, server := range longNames[files[fi]] {
					inc.Set(server, token)
				}
			}
		}
	}

	// File sets are prepared lazily: only long-name servers that meet
	// another one in a candidate pair pay the name resolution and sort.
	var fileSets []fileSet
	setOf := func(id int) fileSet {
		if fileSets == nil {
			fileSets = make([]fileSet, len(nodes.Infos))
		}
		if fileSets[id].sorted == nil {
			fileSets[id] = newFileSet(nodes.Infos[id].FileList(), opts.LenThreshold)
		}
		return fileSets[id]
	}

	sg.G = pairGraph(inc, opts.MaxFanout, opts.MinSimilarity, func(a int, partners, counts []int32, w []float64) {
		// When the fan-out cap skipped none of row a's files, SharedSkipped
		// is 0 for every partner: asked once per row, not per pair.
		skips := inc.SkipsAny(a)
		for i, p := range partners {
			b := int(p)
			if hasLong[a] && hasLong[b] {
				w[i] = serverFileSimSets(setOf(a), setOf(b), opts.LenThreshold, opts.CosineThreshold)
				continue
			}
			// With long names on at most one side the cosine fallback has
			// nothing to match against, so eq. (7) counts exact matches
			// only — the shared file ids: the product's count (such a pair
			// shares no long-name group token) plus the hub files its
			// fan-out cap skipped. Same quotients as serverFileSimSets, so
			// the weight is bit-identical to the string walk's.
			exact := int(counts[p])
			if skips {
				exact += inc.SharedSkipped(a, b)
			}
			w[i] = quotient(exact, nFiles[a]) * quotient(exact, nFiles[b])
		}
	})
	return sg
}

// clusterLongNames groups long filenames into connected components of the
// "cosine > threshold" relation using a union-find over pairwise checks.
// The population of long names is small in practice (they only appear in
// obfuscating campaigns), so the quadratic pass is cheap; a hard cap guards
// pathological inputs.
func clusterLongNames(files []string, cosThreshold float64) [][]int {
	const maxPairwise = 4096
	parent := make([]int, len(files))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	n := len(files)
	if n > maxPairwise {
		n = maxPairwise
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if CharCosine(files[i], files[j]) > cosThreshold {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	groups := make(map[int][]int)
	for i := range files {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// BuildWhoisGraph builds the whois secondary dimension graph: servers whose
// registration records share at least whois.MinSharedFields fields are
// connected with the field-overlap similarity. Candidate pairs come from
// shared field-signature tokens.
func BuildWhoisGraph(idx *trace.Index, reg whois.Registry, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	if reg == nil {
		sg.G = graph.New(len(nodes.Names))
		return sg
	}
	records := make(map[int]whois.Record)
	tokens := make(map[string]uint64) // field-signature token -> feature key, first-seen order
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	for id, name := range nodes.Names {
		rec, ok := reg.Lookup(name)
		if !ok {
			continue
		}
		records[id] = rec
		for _, token := range whois.FieldSignature(rec) {
			key, ok := tokens[token]
			if !ok {
				key = uint64(len(tokens))
				tokens[token] = key
			}
			inc.Set(id, key)
		}
	}
	sg.G = pairGraph(inc, opts.MaxFanout, 0, func(a int, partners, _ []int32, w []float64) {
		for i, p := range partners {
			w[i] = whois.Similarity(records[a], records[int(p)])
		}
	})
	return sg
}
