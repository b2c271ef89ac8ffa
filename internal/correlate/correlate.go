// Package correlate implements ASH correlation (§III-C): suspicious herds
// are formed by intersecting each main-dimension (client similarity) herd
// with the herds of each secondary dimension, and each server accumulates a
// suspicious score
//
//	S(Si) = Σ_d  w_d(C_d) · w_m(C_m) · σ(|C_d ∩ C_m|)        (eq. 9)
//
// where w(C) is the herd's edge density, σ(x) = ½(1+erf((x−µ)/β)) with the
// paper's µ=4, β=5.5, and the sum ranges over the secondary dimensions whose
// herd containing Si intersects Si's main herd. Servers scoring below the
// inference threshold are removed; herds left with fewer than two servers
// are dropped. A score above 1.0 therefore requires agreement of the main
// dimension and at least two secondary dimensions.
package correlate

import (
	"maps"
	"slices"
	"sort"

	"smash/internal/herd"
	"smash/internal/stats"
)

// Options tunes correlation.
type Options struct {
	// Mu and Beta parameterize the sigma normalizer. Zero values use the
	// paper's defaults (µ=4, β=5.5).
	Mu, Beta float64
	// Threshold is the minimum suspicious score to keep a server. The
	// paper evaluates {0.5, 0.8, 1.0, 1.5} and selects 0.8 for multi-client
	// campaigns. Zero uses DefaultThreshold.
	Threshold float64
}

// DefaultThreshold is the paper's operating point for campaigns with more
// than one involved client.
const DefaultThreshold = 0.8

func (o Options) normalized() Options {
	if o.Mu == 0 {
		o.Mu = stats.DefaultMu
	}
	if o.Beta == 0 {
		o.Beta = stats.DefaultBeta
	}
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	return o
}

// ServerScore is the correlation verdict for one server. The JSON shape is
// stable and consumed by smash -json and the smashd NDJSON feed; the herd
// pointer stays internal.
type ServerScore struct {
	// Server is the server key.
	Server string `json:"server"`
	// Score is the accumulated suspicious score S(Si).
	Score float64 `json:"score"`
	// Dimensions lists the secondary dimensions that contributed, sorted.
	Dimensions []string `json:"dimensions,omitempty"`
	// MainHerd identifies the server's main-dimension herd.
	MainHerd *herd.ASH `json:"-"`
}

// SuspiciousASH is a correlated herd: the servers of one main-dimension herd
// that survived the score threshold.
type SuspiciousASH struct {
	// MainHerd is the originating main-dimension herd.
	MainHerd *herd.ASH
	// Servers is the sorted surviving member list.
	Servers []string
	// Score is the maximum member score (the herd's confidence).
	Score float64
}

// Result is the output of correlation.
type Result struct {
	// Herds holds the suspicious ASHs, ordered by first member.
	Herds []SuspiciousASH
	// Scores maps every scored server (>0 before thresholding) to its
	// verdict, including servers later dropped by the threshold.
	Scores map[string]*ServerScore
}

// Correlate runs ASH correlation over mined herds.
func Correlate(mined *herd.Result, opts Options) *Result {
	opts = opts.normalized()
	// A server's score is a float sum over its secondary dimensions, whose
	// bits depend on the order of the terms: add them in name order.
	dims := slices.Sorted(maps.Keys(mined.Secondary))
	// herdOf[d] maps a server to its herd in dimension dims[d]: at most
	// one, since a dimension's herds are disjoint (see herd.MineFunc).
	herdOf := make([]map[string]*herd.ASH, len(dims))
	for d, dim := range dims {
		herds := mined.Secondary[dim]
		herdOf[d] = make(map[string]*herd.ASH)
		for i := range herds {
			for _, s := range herds[i].Servers {
				herdOf[d][s] = &herds[i]
			}
		}
	}

	scores := make(map[string]*ServerScore)
	for i := range mined.Main {
		mainHerd := &mined.Main[i]
		// |secondary herd ∩ main herd| is the number of main-herd members
		// in it: each member sits in at most one herd per dimension.
		inters := make(map[*herd.ASH]int)
		for _, server := range mainHerd.Servers {
			for _, of := range herdOf {
				if h := of[server]; h != nil {
					inters[h]++
				}
			}
		}
		for _, server := range mainHerd.Servers {
			var entry *ServerScore
			for d, dim := range dims {
				secHerd := herdOf[d][server]
				if secHerd == nil {
					continue
				}
				inter := inters[secHerd]
				if inter < 2 {
					// The intersection must associate the server with at
					// least one other server; a singleton intersection
					// carries no herd evidence.
					continue
				}
				if entry == nil {
					entry = &ServerScore{Server: server, MainHerd: mainHerd}
					scores[server] = entry
				}
				entry.Score += secHerd.Density * mainHerd.Density *
					stats.Sigma(float64(inter), opts.Mu, opts.Beta)
				entry.Dimensions = append(entry.Dimensions, dim) // sorted, as dims
			}
		}
	}

	// Threshold and regroup by main herd.
	byMain := make(map[*herd.ASH][]string)
	for server, sc := range scores {
		if sc.Score >= opts.Threshold {
			byMain[sc.MainHerd] = append(byMain[sc.MainHerd], server)
		}
	}
	res := &Result{Scores: scores}
	for mainHerd, servers := range byMain {
		if len(servers) < 2 {
			continue // groups with one server left are removed (§III-C)
		}
		sort.Strings(servers)
		maxScore := 0.0
		for _, s := range servers {
			if sc := scores[s]; sc.Score > maxScore {
				maxScore = sc.Score
			}
		}
		res.Herds = append(res.Herds, SuspiciousASH{
			MainHerd: mainHerd,
			Servers:  servers,
			Score:    maxScore,
		})
	}
	sort.Slice(res.Herds, func(i, j int) bool {
		return res.Herds[i].Servers[0] < res.Herds[j].Servers[0]
	})
	return res
}

// DimensionDecomposition counts, for each distinct combination of
// contributing secondary dimensions, how many servers above the threshold
// were inferred through exactly that combination (Fig. 8). Keys are
// "+"-joined sorted dimension names.
func (r *Result) DimensionDecomposition(threshold float64) map[string]int {
	out := make(map[string]int)
	for _, h := range r.Herds {
		for _, server := range h.Servers {
			sc := r.Scores[server]
			if sc == nil || sc.Score < threshold {
				continue
			}
			out[comboKey(sc.Dimensions)]++
		}
	}
	return out
}

func comboKey(dims []string) string {
	key := ""
	for i, d := range dims {
		if i > 0 {
			key += "+"
		}
		key += d
	}
	return key
}
