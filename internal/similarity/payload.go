package similarity

import "smash/internal/trace"

// DimPayload names the optional payload-similarity secondary dimension
// suggested in the paper's Extensions discussion (§VI): malware download
// tiers serve the same binary (possibly under different names) from many
// servers, so shared payload digests of the captured response prefixes link
// them even when every other dimension is randomized.
const DimPayload = "payload"

// BuildPayloadGraph connects servers whose observed payload-digest sets are
// similar (eq. 1 form over digests). Digests served by more than MaxFanout
// servers (shared CDN assets, common libraries) are skipped.
func BuildPayloadGraph(idx *trace.Index, opts Options) *ServerGraph {
	return setGraph(idx, opts.normalized(), 1, func(s *trace.ServerInfo) trace.Counts { return s.Payloads })
}
