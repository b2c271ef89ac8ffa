package trace

import "strings"

// Front-cache namespaces: one per shared table a request interns into,
// plus the memoized derivations.
const (
	nsServers   = iota // server key -> Servers id
	nsClients          // client -> Clients id
	nsIPs              // destination IP -> IPs id
	nsFiles            // URI file -> Files id
	nsAgents           // User-Agent -> Agents id
	nsPayloads         // payload digest -> Payloads id
	nsPatterns         // raw query -> Queries id of its parameter pattern
	nsReferrers        // referrer host -> Servers id of its SLD
	nsCount
)

// Interner is one goroutine's front cache over a Symbols: plain maps from
// the strings a request carries to the ids (and the SLD memo) the shared
// tables hold, so a repeated key costs one unsynchronized map hit instead
// of a sync.Map load. Misses fall through to the shared tables, so ids
// stay global and an index built through an Interner is the index built
// without one.
//
// An Interner serves one Symbols at a time and starts over, empty, when
// handed another (a symbol-epoch rotation): every key then re-interns by
// name in the new epoch. Keys are cloned on a miss, so no cached key pins
// the line it was sliced from. The zero value is ready to use; it is not
// safe for concurrent use.
type Interner struct {
	syms *Symbols
	ids  [nsCount]map[string]uint32
	slds map[string]string // raw host -> SLD server key
}

// bind points the cache at sy, dropping what it held for another epoch. A
// nil Interner stays nil: every lookup then goes to the shared tables.
func (in *Interner) bind(sy *Symbols) {
	if in == nil || in.syms == sy {
		return
	}
	in.syms = sy
	for i := range in.ids {
		in.ids[i] = make(map[string]uint32)
	}
	in.slds = make(map[string]string)
}

// ServerKey is sy.RequestServerKey through the cache.
func (in *Interner) ServerKey(sy *Symbols, r *Request) string {
	if r.Host == "" {
		return r.ServerIP
	}
	in.bind(sy)
	return in.sld(sy, r.Host)
}

// id returns the id f assigns s in namespace ns, calling f (with a clone
// of s) only on a miss. A nil Interner calls f every time.
func (in *Interner) id(ns int, s string, f func(string) uint32) uint32 {
	if in == nil {
		return f(s)
	}
	if id, ok := in.ids[ns][s]; ok {
		return id
	}
	s = strings.Clone(s)
	id := f(s)
	in.ids[ns][s] = id
	return id
}

// sld is sy.SLD through the cache.
func (in *Interner) sld(sy *Symbols, host string) string {
	if in == nil {
		return sy.SLD(host)
	}
	if key, ok := in.slds[host]; ok {
		return key
	}
	host = strings.Clone(host)
	key := sy.SLD(host)
	in.slds[host] = key
	return key
}

// None marks an Entry id the request does not count.
const None = ^uint32(0)

// Entry is one request as an index counts it: its server's interned id,
// the id it counts in each of ServerInfo's count maps — Clients, IPs,
// Files, Referrers, UserAgents, Queries, Payloads, in that order — and
// whether it failed (status >= 400). An absent IP, an absent or self
// referrer, and an optional field that is empty or not kept are None.
type Entry struct {
	Server uint32
	IDs    [7]uint32
	Error  bool
}

// entry interns r, whose server id is sid, into sy as an index of fields
// f counts it: the one place Index.AddKeyed and Log.AddKeyed resolve a
// request, so the two cannot drift.
func (in *Interner) entry(sy *Symbols, f Fields, r *Request, sid uint32) Entry {
	e := Entry{Server: sid, IDs: [7]uint32{None, None, None, None, None, None, None}, Error: r.Status >= 400}
	e.IDs[0] = in.id(nsClients, r.Client, sy.Clients.ID)
	if r.ServerIP != "" {
		e.IDs[1] = in.id(nsIPs, r.ServerIP, sy.IPs.ID)
	}
	e.IDs[2] = in.id(nsFiles, r.URIFile(), sy.Files.ID)
	if r.Referrer != "" {
		// Ids are distinct per name, so a self-referrer's id is sid.
		if ref := in.id(nsReferrers, r.Referrer, func(h string) uint32 { return sy.Servers.ID(sy.SLD(h)) }); ref != sid {
			e.IDs[3] = ref
		}
	}
	if r.UserAgent != "" && f&FieldAgents != 0 {
		e.IDs[4] = in.id(nsAgents, r.UserAgent, sy.Agents.ID)
	}
	if r.Query != "" && f&FieldQueries != 0 {
		e.IDs[5] = in.id(nsPatterns, r.Query, sy.queryPatternID)
	}
	if r.PayloadDigest != "" && f&FieldPayloads != 0 {
		e.IDs[6] = in.id(nsPayloads, r.PayloadDigest, sy.Payloads.ID)
	}
	return e
}

// Log is the run log of one window fragment: one Entry per request, in
// the symbol epoch Syms, keeping the optional Fields. Logging costs a
// fraction of counting into an index's maps, and wire.EncodeLogs turns
// logs into the encoding of their index, so nodes that ship windows log.
type Log struct {
	Syms    *Symbols
	Fields  Fields
	Entries []Entry
}

// AddKeyed logs r as Index.AddKeyed counts it.
func (l *Log) AddKeyed(r *Request, key string, in *Interner) {
	if key != "" {
		in.bind(l.Syms)
		l.Entries = append(l.Entries, in.entry(l.Syms, l.Fields, r, in.id(nsServers, key, l.Syms.Servers.ID)))
	}
}
