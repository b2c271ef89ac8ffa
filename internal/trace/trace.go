// Package trace defines SMASH's HTTP traffic data model: individual HTTP
// request records as observed at the edge of an ISP or enterprise network,
// whole traces, and the aggregated per-server index that every downstream
// pipeline stage (preprocessing, similarity mining, pruning) consumes.
//
// A "server" in SMASH's sense is a logical endpoint keyed by second-level
// domain when a hostname is known, or by the literal IP address otherwise,
// matching the paper's aggregation rule (§III-A).
//
// # Interned data plane
//
// Every hot key — server, client, IP, URI file, referrer, and User-Agent,
// query pattern and payload digest where the index's Fields keep them —
// is interned once at ingest into a shared Symbols table and carried as a
// dense uint32 id from then on. The per-server aggregates (ServerInfo)
// are id-keyed counted multisets (Counts): integer map operations replace
// string re-hashing in every downstream hot loop.
// Strings resurface only at API boundaries (reports, lineages, rendered
// output), always ordered by name so that the run-dependent id assignment
// never leaks into output.
package trace

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"smash/internal/domain"
	"smash/internal/intern"
)

// Request is one HTTP request observed on the wire.
type Request struct {
	// Time is when the request was observed.
	Time time.Time
	// Client identifies the internal client host (e.g. its IP address).
	Client string
	// Host is the HTTP Host header value (hostname or IP literal).
	Host string
	// ServerIP is the destination IP address of the TCP connection.
	ServerIP string
	// Path is the URI path, without the query string.
	Path string
	// Query is the raw query string, without the leading '?'.
	Query string
	// UserAgent is the User-Agent header value ("-" when absent).
	UserAgent string
	// Referrer is the Referer header's host part ("" when absent).
	Referrer string
	// Status is the HTTP response status code (0 when no response seen).
	Status int
	// PayloadDigest is an opaque digest of the response payload prefix
	// (the paper's monitor captured the first 5000 bytes per connection);
	// empty when unavailable. It feeds the optional payload-similarity
	// dimension suggested in §VI Extensions.
	PayloadDigest string
}

// ServerKey returns the logical server identity of the request: the SLD of
// the Host header, or the destination IP when no hostname was seen.
func (r *Request) ServerKey() string {
	if r.Host != "" {
		return domain.SLD(r.Host)
	}
	return r.ServerIP
}

// URIFile extracts the "URI file" as defined in §III-B2 of the paper: the
// substring of the URI from the last '/' to the end, stopping before any
// '?' — usually the file or script handling the request. The query part is
// never included; a trailing slash yields "/" (matching the Sality C&C
// example where the shared filename is "/").
func (r *Request) URIFile() string {
	return URIFileOf(r.Path)
}

// URIFileOf extracts the URI file from a raw path string.
func URIFileOf(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	if path == "" {
		return "/"
	}
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return path
	}
	file := path[i+1:]
	if file == "" {
		return "/"
	}
	return file
}

// Trace is an ordered collection of requests, typically one observation day.
type Trace struct {
	// Name labels the trace (e.g. "Data2011day").
	Name string
	// Requests holds the observed requests in arrival order.
	Requests []Request
}

// Stats summarizes a trace in the shape of the paper's Table I.
type Stats struct {
	Name     string
	Clients  int
	Requests int
	Servers  int
	URIFiles int
}

// ComputeStats scans the trace once and returns Table-I style statistics.
// Servers are counted after SLD aggregation; URI files are counted as
// distinct (server, file) pairs to match the paper's per-server file notion.
func (t *Trace) ComputeStats() Stats {
	clients := make(map[string]struct{})
	servers := make(map[string]struct{})
	files := make(map[string]struct{})
	for i := range t.Requests {
		r := &t.Requests[i]
		clients[r.Client] = struct{}{}
		key := r.ServerKey()
		servers[key] = struct{}{}
		files[key+"\x00"+r.URIFile()] = struct{}{}
	}
	return Stats{
		Name:     t.Name,
		Clients:  len(clients),
		Requests: len(t.Requests),
		Servers:  len(servers),
		URIFiles: len(files),
	}
}

// Render formats the stats as one row of a Table-I style report.
func (s Stats) Render() string {
	return fmt.Sprintf("%-16s clients=%-8d requests=%-10d servers=%-8d uriFiles=%d",
		s.Name, s.Clients, s.Requests, s.Servers, s.URIFiles)
}

// Counts is an id-keyed counted multiset: feature id -> number of requests
// that contributed the feature. Distinct cardinality is len.
type Counts map[uint32]uint32

// Symbols is the shared symbol table of the interned data plane: one
// intern.Table per key namespace. Indexes that are merged into each other
// (window fragments, clones) share one Symbols so ids are directly
// compatible; Merge falls back to string remapping otherwise.
//
// Symbols also memoizes the two per-request string derivations (host ->
// SLD server key, raw query -> parameter pattern id), which repeat heavily
// in any real trace.
type Symbols struct {
	Servers  *intern.Table
	Clients  *intern.Table
	IPs      *intern.Table
	Files    *intern.Table
	Agents   *intern.Table
	Queries  *intern.Table
	Payloads *intern.Table

	slds     sync.Map // raw host -> SLD string
	patterns sync.Map // raw query -> query-pattern id (Queries table)
}

// NewSymbols returns an empty symbol table set.
func NewSymbols() *Symbols {
	return &Symbols{
		Servers:  intern.NewTable(),
		Clients:  intern.NewTable(),
		IPs:      intern.NewTable(),
		Files:    intern.NewTable(),
		Agents:   intern.NewTable(),
		Queries:  intern.NewTable(),
		Payloads: intern.NewTable(),
	}
}

// SLD returns domain.SLD(host) through a memo cache — hostnames repeat on
// almost every request, so the parse runs once per distinct host.
func (sy *Symbols) SLD(host string) string {
	if v, ok := sy.slds.Load(host); ok {
		return v.(string)
	}
	s := domain.SLD(host)
	sy.slds.Store(host, s)
	return s
}

// RequestServerKey is Request.ServerKey through the SLD memo cache.
func (sy *Symbols) RequestServerKey(r *Request) string {
	if r.Host != "" {
		return sy.SLD(r.Host)
	}
	return r.ServerIP
}

// queryPatternID interns the parameter pattern of a raw query string,
// memoizing per raw query so the split/sort/join runs once per distinct
// query string.
func (sy *Symbols) queryPatternID(rawQuery string) uint32 {
	if v, ok := sy.patterns.Load(rawQuery); ok {
		return v.(uint32)
	}
	id := sy.Queries.ID(QueryPattern(rawQuery))
	sy.patterns.Store(rawQuery, id)
	return id
}

// ServerInfo aggregates everything SMASH needs to know about one logical
// server, accumulated over a trace. All aggregates are id-keyed counted
// multisets over the index's Symbols; use the name-resolving helpers (or
// Symbols directly) at API boundaries.
type ServerInfo struct {
	// Key is the server identity (SLD or IP literal).
	Key string
	// SID is the server's id in the Symbols.Servers table.
	SID uint32
	// Clients counts requests per client id that contacted the server.
	Clients Counts
	// IPs counts requests per destination IP id observed for the server.
	IPs Counts
	// Files counts requests per URI-file id.
	Files Counts
	// Referrers counts requests per referring server id (Servers table),
	// for referrer group pruning.
	Referrers Counts
	// UserAgents counts requests per User-Agent id (Agents table).
	UserAgents Counts
	// Queries counts requests per query-parameter-pattern id (sorted
	// parameter names, e.g. "e&id&p"), used for campaign pattern matching.
	Queries Counts
	// Payloads counts requests per payload-digest id (empty digests are
	// not recorded).
	Payloads Counts
	// Requests is the total number of requests to this server.
	Requests int
	// ErrorRequests counts requests whose status was >= 400.
	ErrorRequests int

	syms *Symbols
}

// IDF is the server's popularity measure from Appendix A: the number of
// distinct clients that contacted it.
func (s *ServerInfo) IDF() int { return len(s.Clients) }

// FileList returns the server's URI files sorted lexicographically.
func (s *ServerInfo) FileList() []string {
	names := s.syms.Files.Names()
	out := make([]string, 0, len(s.Files))
	for f := range s.Files {
		out = append(out, names[f])
	}
	sort.Strings(out)
	return out
}

// has reports counted membership of name in m under table t without
// interning name.
func has(t *intern.Table, m Counts, name string) bool {
	id, ok := t.Lookup(name)
	if !ok {
		return false
	}
	return m[id] > 0
}

// HasFile reports whether the server served the named URI file.
func (s *ServerInfo) HasFile(name string) bool { return has(s.syms.Files, s.Files, name) }

// HasUserAgent reports whether the server saw the named User-Agent.
func (s *ServerInfo) HasUserAgent(name string) bool { return has(s.syms.Agents, s.UserAgents, name) }

// topName returns the name of the most frequent id in m (ties broken
// lexicographically by name), or "" for an empty multiset.
func topName(t *intern.Table, m Counts) string {
	names := t.Names()
	best, bestN := "", uint32(0)
	for id, n := range m {
		name := names[id]
		if n > bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	return best
}

// TopFile returns the server's most requested URI file.
func (s *ServerInfo) TopFile() string { return topName(s.syms.Files, s.Files) }

// TopUserAgent returns the server's most frequent User-Agent.
func (s *ServerInfo) TopUserAgent() string { return topName(s.syms.Agents, s.UserAgents) }

// TopQuery returns the server's most frequent query-parameter pattern.
func (s *ServerInfo) TopQuery() string { return topName(s.syms.Queries, s.Queries) }

// DominantReferrer returns the referrer server responsible for the largest
// share of this server's requests and that share in [0,1]. It returns
// ("", 0) when no request carried a referrer.
func (s *ServerInfo) DominantReferrer() (string, float64) {
	names := s.syms.Servers.Names()
	best, bestN := "", uint32(0)
	for ref, n := range s.Referrers {
		name := names[ref]
		if n > bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	if bestN == 0 || s.Requests == 0 {
		return "", 0
	}
	return best, float64(bestN) / float64(s.Requests)
}

// ErrorFraction reports the fraction of this server's requests that returned
// an error status (>= 400), used by the "suspicious campaign" verification.
func (s *ServerInfo) ErrorFraction() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.ErrorRequests) / float64(s.Requests)
}

// NodeTable is the deterministic server <-> dense-node-id mapping the
// similarity builders and miners share: node i is the i-th server key in
// sorted order. It is built once per quiescent index (Nodes) instead of
// once per dimension, and must be treated as read-only.
type NodeTable struct {
	// Names maps node id -> server key, sorted.
	Names []string
	// IDs maps server key -> node id.
	IDs map[string]int
	// Infos maps node id -> the server's info.
	Infos []*ServerInfo
}

// Fields is a set of the optional per-server count maps an index keeps;
// the others are nil. Clients, IPs, files and referrers are always kept:
// preprocessing, pruning and campaign inference read them.
type Fields uint8

const (
	FieldAgents   Fields = 1 << iota // ServerInfo.UserAgents
	FieldQueries                     // ServerInfo.Queries
	FieldPayloads                    // ServerInfo.Payloads

	AllFields = FieldAgents | FieldQueries | FieldPayloads
)

// Index is the aggregated per-server view of a trace after SLD aggregation.
// It keeps clients per server only: every stage reads a server's client
// set (eq. (1), the IDF filter), and none the servers of a client.
type Index struct {
	// Syms is the symbol table set all ids in the index resolve through.
	Syms *Symbols
	// Servers maps server key -> accumulated info.
	Servers map[string]*ServerInfo
	// RequestCount is the total number of requests indexed.
	RequestCount int

	fields  Fields
	nodesMu sync.Mutex
	nodes   *NodeTable
}

// NewIndex returns an empty index with no optional fields and fresh Symbols.
func NewIndex() *Index {
	return NewIndexWith(NewSymbols())
}

// NewIndexWith returns an empty index sharing the given Symbols, with no
// optional fields. Window fragments that will later be merged must share
// one Symbols so Merge can take the id fast path.
func NewIndexWith(syms *Symbols) *Index {
	return NewIndexOf(syms, 0)
}

// NewIndexOf returns an empty index sharing the given Symbols that keeps
// the optional fields f.
func NewIndexOf(syms *Symbols, f Fields) *Index {
	return &Index{
		Syms:    syms,
		Servers: make(map[string]*ServerInfo),
		fields:  f,
	}
}

// BuildIndex aggregates a trace into an Index with no optional fields.
// Hostnames are SLD-aggregated; servers without hostnames are keyed by IP.
func BuildIndex(t *Trace) *Index {
	return BuildIndexOf(t, 0)
}

// BuildIndexOf is BuildIndex for an index that keeps the optional fields f.
func BuildIndexOf(t *Trace, f Fields) *Index {
	idx := NewIndexOf(NewSymbols(), f)
	for i := range t.Requests {
		idx.Add(&t.Requests[i])
	}
	return idx
}

// Fields returns the optional fields the index keeps.
func (idx *Index) Fields() Fields { return idx.fields }

// newServerInfo builds an empty ServerInfo for key, whose Servers id is
// sid, with the maps of the index's fields — the single place the
// per-field map set is constructed, shared by Add and Merge so a new
// field cannot be initialized in one path and forgotten in the other.
func (idx *Index) newServerInfo(key string, sid uint32) *ServerInfo {
	s := &ServerInfo{
		Key:       key,
		SID:       sid,
		syms:      idx.Syms,
		Clients:   make(Counts),
		IPs:       make(Counts),
		Files:     make(Counts),
		Referrers: make(Counts),
	}
	if idx.fields&FieldAgents != 0 {
		s.UserAgents = make(Counts)
	}
	if idx.fields&FieldQueries != 0 {
		s.Queries = make(Counts)
	}
	if idx.fields&FieldPayloads != 0 {
		s.Payloads = make(Counts)
	}
	return s
}

// invalidate drops the cached node table after a mutation.
func (idx *Index) invalidate() { idx.nodes = nil }

// PutServer registers s, whose count maps a decoder (internal/wire) built
// whole, under s.Key. s.SID must be s.Key's id in the index's Symbols.
func (idx *Index) PutServer(s *ServerInfo) {
	s.syms = idx.Syms
	idx.Servers[s.Key] = s
	idx.invalidate()
}

// Add incorporates one request into the index.
func (idx *Index) Add(r *Request) {
	idx.AddKeyed(r, idx.Syms.RequestServerKey(r), nil)
}

// AddKeyed is Add for a caller that already holds r's server key (from
// Symbols.RequestServerKey or Interner.ServerKey) and interns through in,
// its own front cache; a nil in interns straight into the shared tables.
// The index is the same either way.
func (idx *Index) AddKeyed(r *Request, key string, in *Interner) {
	if key == "" {
		return
	}
	sy := idx.Syms
	in.bind(sy)
	info := idx.Servers[key]
	if info == nil {
		info = idx.newServerInfo(key, in.id(nsServers, key, sy.Servers.ID))
		idx.Servers[key] = info
	}
	e := in.entry(sy, idx.fields, r, info.SID)
	for i, m := range [...]Counts{info.Clients, info.IPs, info.Files, info.Referrers, info.UserAgents, info.Queries, info.Payloads} {
		if e.IDs[i] != None {
			m[e.IDs[i]]++
		}
	}
	info.Requests++
	if e.Error {
		info.ErrorRequests++
	}
	idx.RequestCount++
	idx.invalidate()
}

// Nodes returns the cached deterministic node table (sorted server keys).
// It is built lazily on a quiescent index and safe to request from
// concurrent dimension builders; any mutation invalidates it.
func (idx *Index) Nodes() *NodeTable {
	idx.nodesMu.Lock()
	defer idx.nodesMu.Unlock()
	if idx.nodes == nil {
		names := make([]string, 0, len(idx.Servers))
		for k := range idx.Servers {
			names = append(names, k)
		}
		sort.Strings(names)
		nt := &NodeTable{
			Names: names,
			IDs:   make(map[string]int, len(names)),
			Infos: make([]*ServerInfo, len(names)),
		}
		for i, n := range names {
			nt.IDs[n] = i
			nt.Infos[i] = idx.Servers[n]
		}
		idx.nodes = nt
	}
	return idx.nodes
}

// Remove deletes a server from the index. Used by the preprocessing IDF
// filter.
func (idx *Index) Remove(key string) {
	info := idx.Servers[key]
	if info == nil {
		return
	}
	idx.RequestCount -= info.Requests
	delete(idx.Servers, key)
	idx.invalidate()
}

// Clone returns a deep copy of the index sharing the same Symbols and
// fields. The preprocessing stage filters a clone so the raw index remains
// available for figure reproduction.
func (idx *Index) Clone() *Index {
	out := NewIndexOf(idx.Syms, idx.fields)
	out.Merge(idx)
	return out
}

// ShallowClone returns a copy that owns its server map but shares idx's
// Symbols and every server's *ServerInfo — the copy the preprocessing
// stage filters, at a fraction of Clone's cost. Remove on either index
// leaves the other alone (it touches only the server map); Add or Merge
// into either would show through the shared aggregates, so after a
// ShallowClone both are read-only in that respect.
func (idx *Index) ShallowClone() *Index {
	return &Index{
		Syms:         idx.Syms,
		Servers:      maps.Clone(idx.Servers),
		RequestCount: idx.RequestCount,
		fields:       idx.fields,
	}
}

// mergeCounts folds src into dst (dst[k] += src[k]).
func mergeCounts(dst, src Counts) {
	for k, n := range src {
		dst[k] += n
	}
}

// remapCounts folds src (under from) into dst (under to), translating ids
// through their names.
func remapCounts(dst Counts, to *intern.Table, src Counts, from *intern.Table) {
	names := from.Names()
	for k, n := range src {
		dst[to.ID(names[k])] += n
	}
}

// Merge folds other into idx; merging indexes of different Fields is a
// programming error and panics. Every aggregate in the index is a counted
// multiset, so merging commutes: shard-built partial indexes merged in any
// order yield exactly the index a sequential Add of the same requests
// would have produced. The streaming engine relies on this to maintain its
// stride-fragment ring. Clone is Merge into an empty index, so the two
// stay one implementation. other is left untouched.
//
// When other shares idx's Symbols (the only arrangement the engine
// produces), the merge is a pure integer-map fold; otherwise ids are
// remapped through their names.
func (idx *Index) Merge(other *Index) { idx.merge(other, false) }

// Absorb is Merge for an other that is thrown away afterwards: where the
// two share Symbols it adopts other's servers that idx lacks instead of
// copying them, and folds the rest as Merge does. other must not be used
// after the call. The streaming sealer absorbs the shard
// fragments it is handed and the ring fragments that expire.
func (idx *Index) Absorb(other *Index) { idx.merge(other, true) }

// merge is Merge, and with adopt set, Absorb.
func (idx *Index) merge(other *Index, adopt bool) {
	if other == nil {
		return
	}
	if other.fields != idx.fields {
		panic(fmt.Sprintf("trace: merge of an index with fields %03b into one with %03b", other.fields, idx.fields))
	}
	if other.Syms == idx.Syms {
		for k, src := range other.Servers {
			dst := idx.Servers[k]
			if dst == nil {
				if adopt {
					idx.Servers[k] = src
					continue
				}
				dst = idx.newServerInfo(k, src.SID)
				idx.Servers[k] = dst
			}
			mergeCounts(dst.Clients, src.Clients)
			mergeCounts(dst.IPs, src.IPs)
			mergeCounts(dst.Files, src.Files)
			mergeCounts(dst.Referrers, src.Referrers)
			mergeCounts(dst.UserAgents, src.UserAgents)
			mergeCounts(dst.Queries, src.Queries)
			mergeCounts(dst.Payloads, src.Payloads)
			dst.Requests += src.Requests
			dst.ErrorRequests += src.ErrorRequests
		}
	} else {
		sy, osy := idx.Syms, other.Syms
		for k, src := range other.Servers {
			dst := idx.Servers[k]
			if dst == nil {
				dst = idx.newServerInfo(k, sy.Servers.ID(k))
				idx.Servers[k] = dst
			}
			remapCounts(dst.Clients, sy.Clients, src.Clients, osy.Clients)
			remapCounts(dst.IPs, sy.IPs, src.IPs, osy.IPs)
			remapCounts(dst.Files, sy.Files, src.Files, osy.Files)
			remapCounts(dst.Referrers, sy.Servers, src.Referrers, osy.Servers)
			remapCounts(dst.UserAgents, sy.Agents, src.UserAgents, osy.Agents)
			remapCounts(dst.Queries, sy.Queries, src.Queries, osy.Queries)
			remapCounts(dst.Payloads, sy.Payloads, src.Payloads, osy.Payloads)
			dst.Requests += src.Requests
			dst.ErrorRequests += src.ErrorRequests
		}
	}
	idx.RequestCount += other.RequestCount
	idx.invalidate()
}

// ComputeStats summarizes the index in the shape of the paper's Table I —
// the streaming path's equivalent of Trace.ComputeStats. Requests without a
// server key are not indexed and therefore not counted here; a client is
// counted once over every server's client set.
func (idx *Index) ComputeStats(name string) Stats {
	files, clients := 0, 0
	seen := make([]bool, idx.Syms.Clients.Len())
	for _, info := range idx.Servers {
		files += len(info.Files)
		for c := range info.Clients {
			if !seen[c] {
				seen[c], clients = true, clients+1
			}
		}
	}
	return Stats{
		Name:     name,
		Clients:  clients,
		Requests: idx.RequestCount,
		Servers:  len(idx.Servers),
		URIFiles: files,
	}
}

// Fingerprint renders the index into a fully name-resolved, sorted,
// deterministic form: two indexes describe the same traffic aggregate if
// and only if their fingerprints are equal, regardless of how their
// Symbols assigned ids. Used by equivalence tests (incremental window
// maintenance vs scratch builds) and diagnostics; cost is O(index) plus
// sorting, so keep it off hot paths.
func (idx *Index) Fingerprint() string {
	countsByName := func(b *strings.Builder, label string, names []string, m Counts) {
		pairs := make([]string, 0, len(m))
		for id, n := range m {
			pairs = append(pairs, fmt.Sprintf("%s=%d", names[id], n))
		}
		sort.Strings(pairs)
		b.WriteString(" ")
		b.WriteString(label)
		b.WriteString("{")
		b.WriteString(strings.Join(pairs, ","))
		b.WriteString("}\n")
	}
	sy := idx.Syms
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d\n", idx.RequestCount)
	for _, k := range idx.Nodes().Names {
		s := idx.Servers[k]
		fmt.Fprintf(&b, "server %s req=%d err=%d\n", k, s.Requests, s.ErrorRequests)
		countsByName(&b, "clients", sy.Clients.Names(), s.Clients)
		countsByName(&b, "ips", sy.IPs.Names(), s.IPs)
		countsByName(&b, "files", sy.Files.Names(), s.Files)
		countsByName(&b, "refs", sy.Servers.Names(), s.Referrers)
		countsByName(&b, "uas", sy.Agents.Names(), s.UserAgents)
		countsByName(&b, "queries", sy.Queries.Names(), s.Queries)
		countsByName(&b, "payloads", sy.Payloads.Names(), s.Payloads)
	}
	return b.String()
}

// QueryPattern normalizes a raw query string into its parameter-name
// pattern: parameter names sorted and joined with '&', values dropped. The
// paper uses such patterns ("p=[]&id=[]&e=[]") to link servers handled by
// the same malware kit even when the values differ.
func QueryPattern(query string) string {
	if query == "" {
		return ""
	}
	parts := strings.Split(query, "&")
	names := make([]string, 0, len(parts))
	for _, p := range parts {
		if i := strings.IndexByte(p, '='); i >= 0 {
			p = p[:i]
		}
		if p == "" {
			continue // value without a name ("=x") carries no pattern
		}
		names = append(names, p)
	}
	sort.Strings(names)
	return strings.Join(names, "&")
}
