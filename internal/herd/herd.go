// Package herd implements Associated Server Herd mining (§III-B3): each
// dimension's server-similarity graph is partitioned with Louvain community
// detection, and every community with at least two servers becomes an ASH
// for that dimension. The miner keeps a registry of dimensions — the main
// client dimension plus any number of secondary dimensions — mirroring the
// paper's extensibility note (new dimensions "can be easily added").
package herd

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"smash/internal/graph"
	"smash/internal/similarity"
	"smash/internal/trace"
	"smash/internal/whois"
)

// ASH is one Associated Server Herd: a set of servers grouped together by a
// single dimension.
type ASH struct {
	// Dimension is the name of the dimension that produced the herd.
	Dimension string
	// ID is the herd's index within its dimension.
	ID int
	// Servers is the sorted member server keys.
	Servers []string
	// Density is the paper's w(C): 2|e| / (|v|(|v|-1)) over the dimension's
	// similarity graph restricted to the herd members.
	Density float64
	// SingleClient, when non-empty, marks a main-dimension herd formed by
	// the servers visited exclusively by this one client (Appendix C).
	SingleClient string
}

// Key returns a unique identifier of the herd across dimensions.
func (a *ASH) Key() string { return fmt.Sprintf("%s/%d", a.Dimension, a.ID) }

// Contains reports whether the herd includes the server (binary search over
// the sorted member list).
func (a *ASH) Contains(server string) bool {
	i := sort.SearchStrings(a.Servers, server)
	return i < len(a.Servers) && a.Servers[i] == server
}

// MineFunc extracts the ASHs of one dimension from its similarity graph.
// MineGraph (Louvain, the paper's choice) is the default; MineComponents is
// the connected-components baseline used by the ablation benchmarks. The
// herds it returns must be disjoint, as both of those partitions' are:
// correlation counts an intersection from each server's one herd per
// dimension. The function must not retain sg past its return: MineContext
// then releases the graph's storage for the next build.
type MineFunc func(dim string, sg *similarity.ServerGraph, seed int64) []ASH

// MineGraph extracts the ASHs of one dimension from its similarity graph:
// Louvain communities with >= 2 members, each annotated with its density.
// Herds are ordered by their smallest member for determinism.
func MineGraph(dim string, sg *similarity.ServerGraph, seed int64) []ASH {
	return herdsFromGroups(dim, sg, sg.G.Louvain(seed))
}

// MineComponents is the naive baseline: connected components instead of
// modularity communities. A single weak edge merges groups, so component
// herds are larger and less dense — the ablation that motivates Louvain.
func MineComponents(dim string, sg *similarity.ServerGraph, _ int64) []ASH {
	comps := sg.G.ConnectedComponents()
	labels := make([]int, sg.G.N())
	for ci, members := range comps {
		for _, v := range members {
			labels[v] = ci
		}
	}
	return herdsFromGroups(dim, sg, labels)
}

// herdsFromGroups turns a compact labelling (0..k-1, as Louvain and
// MineComponents produce) into herds.
func herdsFromGroups(dim string, sg *similarity.ServerGraph, labels []int) []ASH {
	var herds []ASH
	for _, members := range graph.Communities(labels) {
		if len(members) < 2 {
			continue
		}
		// Louvain communities are connected in practice, but guard against
		// a community with no internal edges (can happen when every member
		// is isolated yet got the same label): density 0 herds carry no
		// evidence, drop them.
		density := sg.G.SubgraphDensity(members)
		if density == 0 {
			continue
		}
		names := make([]string, len(members))
		for i, n := range members {
			names[i] = sg.Names[n]
		}
		sort.Strings(names)
		herds = append(herds, ASH{Dimension: dim, Servers: names, Density: density})
	}
	sort.Slice(herds, func(i, j int) bool { return herds[i].Servers[0] < herds[j].Servers[0] })
	for i := range herds {
		herds[i].ID = i
	}
	return herds
}

// Dimension produces a similarity graph for one relationship dimension.
type Dimension interface {
	// Name returns the dimension's unique name.
	Name() string
	// Fields returns the optional index fields Build reads.
	Fields() trace.Fields
	// Build constructs the server-similarity graph from the index.
	Build(idx *trace.Index) *similarity.ServerGraph
}

// builtin adapts a build function to the Dimension interface.
type builtin struct {
	name   string
	fields trace.Fields
	build  func(idx *trace.Index) *similarity.ServerGraph
}

func (b builtin) Name() string                                   { return b.name }
func (b builtin) Fields() trace.Fields                           { return b.fields }
func (b builtin) Build(idx *trace.Index) *similarity.ServerGraph { return b.build(idx) }

// ClientDimension returns the main dimension (client-set similarity). An
// edge requires at least two shared clients unless the options say
// otherwise; servers with a single visitor are grouped by the dedicated
// single-client ASHs instead (Appendix C).
func ClientDimension(opts similarity.Options) Dimension {
	if opts.MinSharedFeatures == 0 {
		opts.MinSharedFeatures = 2
	}
	if opts.MinSimilarity == 0 {
		opts.MinSimilarity = similarity.DefaultClientMinSimilarity
	}
	return builtin{similarity.DimClient, 0, func(idx *trace.Index) *similarity.ServerGraph {
		return similarity.BuildClientGraph(idx, opts)
	}}
}

// FileDimension returns the URI-file secondary dimension.
func FileDimension(opts similarity.Options) Dimension {
	return builtin{similarity.DimFile, 0, func(idx *trace.Index) *similarity.ServerGraph {
		return similarity.BuildFileGraph(idx, opts)
	}}
}

// IPDimension returns the IP-address-set secondary dimension.
func IPDimension(opts similarity.Options) Dimension {
	return builtin{similarity.DimIP, 0, func(idx *trace.Index) *similarity.ServerGraph {
		return similarity.BuildIPGraph(idx, opts)
	}}
}

// WhoisDimension returns the whois secondary dimension backed by reg.
func WhoisDimension(reg whois.Registry, opts similarity.Options) Dimension {
	return builtin{similarity.DimWhois, 0, func(idx *trace.Index) *similarity.ServerGraph {
		return similarity.BuildWhoisGraph(idx, reg, opts)
	}}
}

// QueryDimension returns the optional query-parameter-pattern secondary
// dimension — the paper's suggested extension for the parameter-pattern
// campaigns its built-in dimensions miss (§V-A2). Register it with
// core.WithExtraDimension.
func QueryDimension(opts similarity.Options) Dimension {
	return builtin{similarity.DimQuery, trace.FieldQueries, func(idx *trace.Index) *similarity.ServerGraph {
		return similarity.BuildQueryGraph(idx, opts)
	}}
}

// UserAgentDimension returns the optional User-Agent secondary dimension
// (rare malware-specific UA strings shared across a campaign's servers).
func UserAgentDimension(opts similarity.Options) Dimension {
	return builtin{similarity.DimUserAgent, trace.FieldAgents, func(idx *trace.Index) *similarity.ServerGraph {
		return similarity.BuildUserAgentGraph(idx, opts)
	}}
}

// PayloadDimension returns the optional payload-similarity secondary
// dimension (§VI Extensions): servers serving the same captured payload
// digests are linked.
func PayloadDimension(opts similarity.Options) Dimension {
	return builtin{similarity.DimPayload, trace.FieldPayloads, func(idx *trace.Index) *similarity.ServerGraph {
		return similarity.BuildPayloadGraph(idx, opts)
	}}
}

// Miner mines ASHs for a main dimension and a set of secondary dimensions.
type Miner struct {
	main      Dimension
	secondary []Dimension
	seed      int64
	mine      MineFunc
}

// NewMiner returns a miner over the given dimensions. The main dimension is
// required; secondary dimensions may be empty (correlation will then find
// nothing, by design).
func NewMiner(main Dimension, secondary []Dimension, seed int64) (*Miner, error) {
	if main == nil {
		return nil, fmt.Errorf("herd: main dimension is required")
	}
	seen := map[string]bool{main.Name(): true}
	for _, d := range secondary {
		if seen[d.Name()] {
			return nil, fmt.Errorf("herd: duplicate dimension %q", d.Name())
		}
		seen[d.Name()] = true
	}
	return &Miner{
		main:      main,
		secondary: append([]Dimension(nil), secondary...),
		seed:      seed,
		mine:      MineGraph,
	}, nil
}

// SetMineFunc overrides the community extraction strategy (default Louvain).
func (m *Miner) SetMineFunc(fn MineFunc) {
	if fn != nil {
		m.mine = fn
	}
}

// Result holds the mined herds of all dimensions.
type Result struct {
	// MainDimension is the main dimension's name.
	MainDimension string
	// Main holds the main-dimension herds.
	Main []ASH
	// Secondary maps secondary dimension name -> its herds.
	Secondary map[string][]ASH
	// Graphs is left nil by MineContext, which releases each dimension's
	// similarity graph once its herds are mined. The field stays only
	// because bench/smashload builds a Result literal with it.
	Graphs map[string]*similarity.ServerGraph
}

// Mine builds every dimension's similarity graph and extracts its ASHs.
// The dimensions are independent, so they are mined concurrently; results
// are collected positionally so the output is identical to a sequential
// run. Mine is MineContext without cancellation, with one worker per
// dimension.
//
// The main dimension additionally receives the single-client ASHs: for
// every client, the servers visited by that client alone form one herd
// (Appendix C — they are perfectly correlated through their sole visitor,
// which no pairwise similarity edge can express once edges require two
// shared clients).
func (m *Miner) Mine(idx *trace.Index) *Result {
	res, _ := m.MineContext(context.Background(), idx, 1+len(m.secondary))
	return res
}

// MineContext mines every dimension on a bounded worker pool. workers <= 0
// uses runtime.NumCPU(); the pool never exceeds the dimension count. The
// fan-out is deterministic: per-dimension results land in fixed slots
// keyed by registration order (dimension names are unique per NewMiner),
// so the Result is identical for any worker count.
//
// Cancellation is cooperative with per-dimension granularity: once ctx is
// done no further dimension build starts, in-flight builds finish, and
// MineContext returns (nil, ctx.Err()). A caller therefore waits at most
// one dimension's build beyond cancellation.
func (m *Miner) MineContext(ctx context.Context, idx *trace.Index, workers int) (*Result, error) {
	dims := append([]Dimension{m.main}, m.secondary...)
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(dims) {
		workers = len(dims)
	}
	results := make([][]ASH, len(dims))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Drain without building once cancelled, so a job that
				// raced past the feeder's check cannot start a build.
				if ctx.Err() != nil {
					continue
				}
				d := dims[i]
				sg := d.Build(idx)
				results[i] = m.mine(d.Name(), sg, m.seed)
				sg.G.Release() // nothing reads it past mining: reuse its storage
			}
		}()
	}
feed:
	for i := range dims {
		// Checked before the select: when both cases are ready the select
		// picks randomly, which could keep feeding after cancellation.
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{
		MainDimension: m.main.Name(),
		Main:          append(results[0], SingleClientASHes(m.main.Name(), idx, len(results[0]))...),
		Secondary:     make(map[string][]ASH, len(m.secondary)),
	}
	for i, d := range m.secondary {
		res.Secondary[d.Name()] = results[i+1]
	}
	return res, nil
}

// SingleClientASHes groups servers visited by exactly one client into one
// herd per client (herds need >= 2 servers). Density is 1: the members are
// fully associated through their single shared visitor. Herd IDs start at
// baseID to stay unique within the dimension.
func SingleClientASHes(dim string, idx *trace.Index, baseID int) []ASH {
	clientNames := idx.Syms.Clients.Names()
	byClient := make(map[string][]string)
	for key, info := range idx.Servers {
		if len(info.Clients) != 1 {
			continue
		}
		for c := range info.Clients {
			byClient[clientNames[c]] = append(byClient[clientNames[c]], key)
		}
	}
	clients := make([]string, 0, len(byClient))
	for c, servers := range byClient {
		if len(servers) >= 2 {
			clients = append(clients, c)
		}
	}
	sort.Strings(clients)
	herds := make([]ASH, 0, len(clients))
	for i, c := range clients {
		servers := byClient[c]
		sort.Strings(servers)
		herds = append(herds, ASH{
			Dimension:    dim,
			ID:           baseID + i,
			Servers:      servers,
			Density:      1,
			SingleClient: c,
		})
	}
	return herds
}

// SecondaryNames returns the secondary dimension names in registration order.
func (m *Miner) SecondaryNames() []string {
	out := make([]string, len(m.secondary))
	for i, d := range m.secondary {
		out[i] = d.Name()
	}
	return out
}
