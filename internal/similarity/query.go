package similarity

import "smash/internal/trace"

// DimQuery names the optional query-parameter-pattern secondary dimension.
// The paper's false-negative analysis (§V-A2) finds 40 missed servers
// (Cycbot, FakeAV, Tidserv) that share no built-in secondary dimension but
// do share URI parameter patterns, and suggests extending the URI-file
// dimension with parameter patterns; this dimension is that extension,
// pluggable via core.WithExtraDimension.
const DimQuery = "querypattern"

// BuildQueryGraph connects servers whose query-parameter-pattern sets are
// similar (eq. 1 form over patterns such as "e&id&p"). Patterns seen on
// more than MaxFanout servers are ignored as too generic.
func BuildQueryGraph(idx *trace.Index, opts Options) *ServerGraph {
	return setGraph(idx, opts.normalized(), 1, func(s *trace.ServerInfo) trace.Counts { return s.Queries })
}
