package similarity

import (
	"smash/internal/sparse"
	"smash/internal/trace"
)

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

// DimTemporal names the optional temporal co-occurrence secondary dimension
// (§VI Extensions, after Gao et al.): servers that one client contacts
// within the same short time window are temporally related — bots cycle
// through their C&C pool in bursts.
const DimTemporal = "temporal"

// TemporalWindow is the co-occurrence bucket width in seconds.
const TemporalWindow = 60

// BuildTemporalGraph connects servers that share (client, time-window)
// co-occurrences, weighted by the eq. 1 form over the servers' window sets.
// It needs the raw trace for timestamps; servers absent from idx (e.g.
// filtered by preprocessing) are ignored. The co-occurrence token packs the
// interned client id with the time bucket into one uint64 feature.
func BuildTemporalGraph(t *trace.Trace, idx *trace.Index, opts Options) *ServerGraph {
	opts = opts.normalized()
	sg, nodes := newServerGraph(idx)
	inc := sparse.Get(len(nodes.Infos))
	defer inc.Release()
	windows := make([]map[uint64]struct{}, len(nodes.Infos)) // node -> window tokens
	for id := range nodes.Infos {
		windows[id] = make(map[uint64]struct{})
	}
	for i := range t.Requests {
		r := &t.Requests[i]
		id, ok := nodes.IDs[idx.Syms.RequestServerKey(r)]
		if !ok {
			continue
		}
		cid := idx.Syms.Clients.ID(r.Client)
		token := uint64(cid)<<32 | uint64(uint32(r.Time.Unix()/TemporalWindow))
		if _, seen := windows[id][token]; seen {
			continue
		}
		windows[id][token] = struct{}{}
		inc.Set(id, token)
	}
	sg.G = pairGraph(inc, opts.MaxFanout, opts.MinSimilarity, func(a int, partners, counts []int32, w []float64) {
		for i, p := range partners {
			w[i] = SetSim(int(counts[p]), len(windows[a]), len(windows[p]))
		}
	})
	return sg
}
