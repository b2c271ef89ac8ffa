// Package core is SMASH's public pipeline: it wires preprocessing, ASH
// mining, multi-dimension correlation, pruning and campaign inference
// (Fig. 2 of the paper) into a Pipeline built from functional options.
//
// Typical use:
//
//	pipe := core.NewPipeline(core.WithSeed(42), core.WithWhois(registry))
//	report, err := pipe.RunTrace(ctx, dayTrace)
//	for _, c := range report.Campaigns { ... }
//
// A Pipeline runs the five stages as one fixed sequence, with context
// cancellation end-to-end, parallel dimension mining, and Observer hooks
// around every stage (see pipeline.go and DESIGN.md).
//
// The pipeline is deterministic for a fixed option set and input trace;
// mining-worker count changes wall-clock time, never output.
package core

import (
	"context"
	"errors"

	"smash/internal/campaign"
	"smash/internal/correlate"
	"smash/internal/herd"
	"smash/internal/preprocess"
	"smash/internal/prune"
	"smash/internal/similarity"
	"smash/internal/trace"
	"smash/internal/webprobe"
	"smash/internal/whois"
)

// config collects all tunables; modified only through Options.
type config struct {
	seed            int64
	idfThreshold    int
	threshold       float64
	singleThreshold float64
	mu, beta        float64
	simOpts         similarity.Options
	prober          webprobe.Prober
	registry        whois.Registry
	minClients      int
	extraDims       []herd.Dimension
	disableWhoisDim bool
	mineFunc        herd.MineFunc
	mineWorkers     int
	observers       []Observer
}

// Option configures a Pipeline.
type Option func(*config)

// WithSeed sets the seed for the deterministic community detection.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithIDFThreshold sets the preprocessing popularity cut (default 200).
func WithIDFThreshold(t int) Option { return func(c *config) { c.idfThreshold = t } }

// WithThreshold sets the inference threshold for multi-client campaigns
// (the paper evaluates 0.5/0.8/1.0/1.5 and operates at 0.8).
func WithThreshold(t float64) Option { return func(c *config) { c.threshold = t } }

// WithSingleClientThreshold sets the (stricter) threshold applied to
// campaigns with a single involved client (paper: 1.0).
func WithSingleClientThreshold(t float64) Option {
	return func(c *config) { c.singleThreshold = t }
}

// WithSigma overrides the sigma normalizer parameters µ and β.
func WithSigma(mu, beta float64) Option {
	return func(c *config) { c.mu, c.beta = mu, beta }
}

// WithSimilarityOptions overrides the similarity graph builders' options.
func WithSimilarityOptions(o similarity.Options) Option {
	return func(c *config) { c.simOpts = o }
}

// WithProber sets the active prober used by pruning and verification.
func WithProber(p webprobe.Prober) Option { return func(c *config) { c.prober = p } }

// WithWhois sets the whois registry enabling the whois dimension.
func WithWhois(r whois.Registry) Option { return func(c *config) { c.registry = r } }

// WithMinClients sets the minimum involved clients for a campaign to be
// reported in Campaigns (smaller ones go to SingleClientCampaigns;
// default 2).
func WithMinClients(n int) Option { return func(c *config) { c.minClients = n } }

// WithExtraDimension registers an additional secondary dimension,
// exercising the paper's extensibility claim (§III-B).
func WithExtraDimension(d herd.Dimension) Option {
	return func(c *config) { c.extraDims = append(c.extraDims, d) }
}

// WithoutWhoisDimension disables the whois dimension even when a registry
// is configured (used by the dimension ablation benchmarks).
func WithoutWhoisDimension() Option { return func(c *config) { c.disableWhoisDim = true } }

// WithComponentMining replaces Louvain community detection with plain
// connected components — the naive baseline the ablation benchmarks
// compare against (a single weak edge then merges herds).
func WithComponentMining() Option {
	return func(c *config) { c.mineFunc = herd.MineComponents }
}

// WithMiningWorkers bounds the dimension-mining fan-out of StageMine: the
// similarity graphs of the main and secondary dimensions are built and
// mined on a pool of n goroutines. 0 (the default) uses runtime.NumCPU();
// 1 restores fully sequential mining. The worker count changes wall-clock
// time only — reports are identical for any value.
func WithMiningWorkers(n int) Option { return func(c *config) { c.mineWorkers = n } }

// WithObserver registers a stage observer (may be given multiple times;
// observers fire in registration order).
func WithObserver(o Observer) Option {
	return func(c *config) {
		if o != nil {
			c.observers = append(c.observers, o)
		}
	}
}

func defaultConfig() config {
	return config{
		seed:            1,
		idfThreshold:    preprocess.DefaultIDFThreshold,
		threshold:       correlate.DefaultThreshold,
		singleThreshold: 1.0,
		minClients:      2,
	}
}

// Detector is the one-call form New(opts...).Run(trace) that
// bench/smashload's tests are written against; everything in this module
// builds a Pipeline and calls RunTrace or Run.
type Detector struct {
	pipe *Pipeline
}

// New builds a Detector from options.
func New(opts ...Option) *Detector {
	return &Detector{pipe: NewPipeline(opts...)}
}

// Run is Pipeline.RunTrace with a background context.
func (d *Detector) Run(t *trace.Trace) (*Report, error) {
	return d.pipe.RunTrace(context.Background(), t)
}

// Report is the output of one pipeline run. The JSON shape is stable:
// heavyweight internals (indexes, per-dimension herds) are excluded, and
// empty collections are omitted.
type Report struct {
	// TraceStats summarizes the input (Table I row).
	TraceStats trace.Stats `json:"traceStats"`
	// Preprocess reports the IDF filtering.
	Preprocess preprocess.Result `json:"preprocess"`
	// MainHerds counts main-dimension ASHs; SecondaryHerds per dimension.
	MainHerds      int            `json:"mainHerds"`
	SecondaryHerds map[string]int `json:"secondaryHerds,omitempty"`
	// Campaigns are inferred campaigns with >= MinClients clients.
	Campaigns []campaign.Campaign `json:"campaigns,omitempty"`
	// SingleClientCampaigns are campaigns below MinClients, held to the
	// stricter single-client threshold (Appendix C).
	SingleClientCampaigns []campaign.Campaign `json:"singleClientCampaigns,omitempty"`
	// Scores maps scored servers to their correlation verdicts.
	Scores map[string]*correlate.ServerScore `json:"scores,omitempty"`
	// PruneStats reports the noise-pruning stage.
	PruneStats prune.Stats `json:"pruneStats"`
	// Index is the post-preprocessing traffic index (used by evaluation
	// and verification). It is RawIndex minus Preprocess.Removed and
	// shares the kept servers' aggregates (*trace.ServerInfo) with it:
	// read it, never Add or Merge into it.
	Index *trace.Index `json:"-"`
	// RawIndex is the pre-filter index the run was handed (used by figure
	// reproduction) — the caller's index itself, not a copy, and
	// read-only for the same reason.
	RawIndex *trace.Index `json:"-"`
	// Mined keeps the per-dimension herds for diagnostics/ablations. Its
	// Graphs are nil: mining hands each similarity graph's pooled storage
	// back once the dimension's herds are extracted.
	Mined *herd.Result `json:"-"`
}

// AllCampaigns returns multi-client and single-client campaigns together.
func (r *Report) AllCampaigns() []campaign.Campaign {
	out := make([]campaign.Campaign, 0, len(r.Campaigns)+len(r.SingleClientCampaigns))
	out = append(out, r.Campaigns...)
	out = append(out, r.SingleClientCampaigns...)
	return out
}

// CampaignServers returns the union of servers over the given campaigns.
func CampaignServers(campaigns []campaign.Campaign) []string {
	seen := make(map[string]struct{})
	var out []string
	for i := range campaigns {
		for _, s := range campaigns[i].Servers {
			if _, ok := seen[s]; ok {
				continue
			}
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	return out
}

// ErrEmptyTrace is returned when the input trace has no requests.
var ErrEmptyTrace = errors.New("core: empty trace")

// filterByScore drops campaign members below the threshold and campaigns
// left with fewer than two servers, renumbering ids.
func filterByScore(campaigns []campaign.Campaign, scores map[string]*correlate.ServerScore, threshold float64) []campaign.Campaign {
	var out []campaign.Campaign
	for _, c := range campaigns {
		var kept []string
		for _, s := range c.Servers {
			if sc := scores[s]; sc != nil && sc.Score >= threshold {
				kept = append(kept, s)
			}
		}
		if len(kept) < 2 {
			continue
		}
		c.Servers = kept
		c.ID = len(out)
		out = append(out, c)
	}
	return out
}

// Decomposition returns the Fig. 8 dimension-combination counts over all
// reported campaigns' servers.
func (r *Report) Decomposition() map[string]int {
	out := make(map[string]int)
	for _, c := range r.AllCampaigns() {
		for _, s := range c.Servers {
			sc := r.Scores[s]
			if sc == nil {
				continue
			}
			key := ""
			for i, d := range sc.Dimensions {
				if i > 0 {
					key += "+"
				}
				key += d
			}
			out[key]++
		}
	}
	return out
}
