// Package preprocess implements SMASH's traffic preprocessing stage
// (§III-A): second-level-domain aggregation (performed by trace.BuildIndex)
// and removal of very popular servers by the IDF popularity measure — the
// number of distinct clients contacting a server. The paper picks an IDF
// threshold of 200, which filters the handful of mega-popular benign
// services while keeping 99% of servers (Appendix A, Fig. 9).
package preprocess

import (
	"fmt"
	"sort"

	"smash/internal/stats"
	"smash/internal/trace"
)

// DefaultIDFThreshold is the paper's popularity cut: servers contacted by
// more than this many distinct clients are removed.
const DefaultIDFThreshold = 200

// Result reports what the preprocessing stage did.
type Result struct {
	// ServersBefore / ServersAfter count logical servers pre/post filter.
	ServersBefore, ServersAfter int
	// RequestsBefore / RequestsAfter count requests pre/post filter.
	RequestsBefore, RequestsAfter int
	// Removed lists the filtered (popular) server keys, sorted.
	Removed []string
}

// TrafficReduction is the fraction of requests removed, in [0,1].
func (r Result) TrafficReduction() float64 {
	if r.RequestsBefore == 0 {
		return 0
	}
	return 1 - float64(r.RequestsAfter)/float64(r.RequestsBefore)
}

// ServerRetention is the fraction of servers kept, in [0,1].
func (r Result) ServerRetention() float64 {
	if r.ServersBefore == 0 {
		return 0
	}
	return float64(r.ServersAfter) / float64(r.ServersBefore)
}

// Render formats the result for reports.
func (r Result) Render() string {
	return fmt.Sprintf(
		"preprocess: servers %d -> %d (%.1f%% kept), requests %d -> %d (%.1f%% removed)",
		r.ServersBefore, r.ServersAfter, 100*r.ServerRetention(),
		r.RequestsBefore, r.RequestsAfter, 100*r.TrafficReduction())
}

// FilterIDF removes servers whose IDF (distinct client count) exceeds
// threshold from the index, in place, and reports the reduction. A
// threshold <= 0 uses DefaultIDFThreshold.
func FilterIDF(idx *trace.Index, threshold int) Result {
	if threshold <= 0 {
		threshold = DefaultIDFThreshold
	}
	res := Result{
		ServersBefore:  len(idx.Servers),
		RequestsBefore: idx.RequestCount,
	}
	for key, info := range idx.Servers {
		if info.IDF() > threshold {
			res.Removed = append(res.Removed, key)
		}
	}
	sort.Strings(res.Removed)
	for _, key := range res.Removed {
		idx.Remove(key)
	}
	res.ServersAfter = len(idx.Servers)
	res.RequestsAfter = idx.RequestCount
	return res
}

// IDFHistogram returns the distribution of server IDF values (Fig. 9): for
// each server, one observation of its distinct-client count.
func IDFHistogram(idx *trace.Index) *stats.Histogram {
	h := stats.NewHistogram()
	for _, info := range idx.Servers {
		h.Add(info.IDF())
	}
	return h
}

// FilenameLengthHistogram returns the distribution of URI-file name lengths
// over the given servers (Fig. 10; the paper computes it over IDS-confirmed
// malicious servers to justify len=25). Unknown server keys are skipped.
func FilenameLengthHistogram(idx *trace.Index, servers []string) *stats.Histogram {
	h := stats.NewHistogram()
	names := idx.Syms.Files.Names()
	for _, key := range servers {
		info := idx.Servers[key]
		if info == nil {
			continue
		}
		for f := range info.Files {
			h.Add(len(names[f]))
		}
	}
	return h
}
