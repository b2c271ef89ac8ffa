package trace

import "strings"

// Front-cache namespaces: one per shared table a request interns into,
// plus the two memoized derivations.
const (
	nsServers  = iota // server key -> Servers id
	nsClients         // client -> Clients id
	nsIPs             // destination IP -> IPs id
	nsFiles           // URI file -> Files id
	nsAgents          // User-Agent -> Agents id
	nsPayloads        // payload digest -> Payloads id
	nsPatterns        // raw query -> Queries id of its parameter pattern
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
