package similarity

import "smash/internal/trace"

// DimUserAgent names the optional User-Agent secondary dimension. It is not
// part of the paper's three built-in secondary dimensions but demonstrates
// the extensibility hook (§III-B: "SMASH ... can easily incorporate new
// dimensions"): malware families often use one distinctive User-Agent
// string across all their servers (e.g. Sality's "KUKU v5.05exp").
const DimUserAgent = "useragent"

// BuildUserAgentGraph connects servers whose observed User-Agent sets are
// similar (eq. 1 form over UA sets). The fan-out cap naturally excludes
// ubiquitous browser UAs, leaving the rare malware-specific strings as the
// discriminating features.
func BuildUserAgentGraph(idx *trace.Index, opts Options) *ServerGraph {
	return setGraph(idx, opts.normalized(), 1, func(s *trace.ServerInfo) trace.Counts { return s.UserAgents })
}
