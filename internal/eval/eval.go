// Package eval reproduces the paper's evaluation (§V): it runs the SMASH
// pipeline over synthetic worlds standing in for the ISP datasets, verifies
// inferred campaigns and servers against the simulated IDS snapshots and
// blacklists exactly as §V-A prescribes, and renders every table and figure
// of the paper (Tables I-VI, XI, XII; Figures 6-10; the four case studies).
//
// The classification ladder mirrors the paper:
//
//	IDS total   — every campaign server labelled by the IDS snapshot
//	IDS partial — at least one server labelled
//	Blacklist   — no IDS label, but blacklist-confirmed servers
//	Suspicious  — no confirmation, but at least half the servers answer
//	              with error statuses or no longer exist
//	FP          — everything else (an upper bound, per the paper)
//	FP updated  — FP after removing the Torrent/TeamViewer noise classes
package eval

import (
	"context"
	"fmt"

	"smash/internal/campaign"
	"smash/internal/core"
	"smash/internal/ids"
	"smash/internal/synth"
	"smash/internal/trace"
	"smash/internal/webprobe"
)

// Env bundles a generated world with its oracles and caches pipeline runs.
type Env struct {
	// World is the synthetic environment under evaluation.
	World *synth.World
	// Oracles are the ground-truth labelling services.
	Oracles *synth.Oracles

	reports map[reportKey]*core.Report
	labels  map[int]labelPair // day -> IDS scan results
}

type reportKey struct {
	day    int
	thresh float64
	single float64
}

type labelPair struct {
	l2012, l2013 ids.Labels
}

// NewEnv generates a world from one of the paper's dataset profiles
// ("Data2011day", "Data2012day", "Data2012week") and builds its oracles.
func NewEnv(profile string, seed int64) (*Env, error) {
	return NewEnvFromConfig(synth.DayProfile(profile, seed))
}

// NewEnvFromConfig generates a world from an explicit config (used by tests
// to run at reduced scale).
func NewEnvFromConfig(cfg synth.Config) (*Env, error) {
	w, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: generate world: %w", err)
	}
	return NewEnvFromWorld(w), nil
}

// NewEnvFromWorld wraps an already-generated world with a fresh evaluation
// cache. Benchmarks use this to amortize world generation across iterations
// while still measuring the pipeline.
func NewEnvFromWorld(w *synth.World) *Env {
	return &Env{
		World:   w,
		Oracles: synth.BuildOracles(w),
		reports: make(map[reportKey]*core.Report),
		labels:  make(map[int]labelPair),
	}
}

// evalFields are the optional index fields verification reads: case-study
// rows, New Server pattern matches and IDS User-Agent signatures.
const evalFields = trace.FieldAgents | trace.FieldQueries

// Run executes (with caching) the detector on one day at the given
// thresholds. singleThresh <= 0 uses the paper's 1.0.
func (e *Env) Run(day int, thresh, singleThresh float64) (*core.Report, error) {
	if singleThresh <= 0 {
		singleThresh = 1.0
	}
	key := reportKey{day: day, thresh: thresh, single: singleThresh}
	if r, ok := e.reports[key]; ok {
		return r, nil
	}
	if day < 0 || day >= len(e.World.Days) {
		return nil, fmt.Errorf("eval: day %d out of range [0,%d)", day, len(e.World.Days))
	}
	tr := e.World.Days[day]
	report, err := core.NewPipeline(
		core.WithSeed(e.World.Config.Seed),
		core.WithWhois(e.World.Whois),
		core.WithProber(e.World.Prober),
		core.WithThreshold(thresh),
		core.WithSingleClientThreshold(singleThresh),
	).Run(context.Background(), trace.BuildIndexOf(tr, evalFields), tr.ComputeStats())
	if err != nil {
		return nil, fmt.Errorf("eval: run day %d: %w", day, err)
	}
	e.reports[key] = report
	return report, nil
}

// Labels returns (with caching) the IDS2012/IDS2013 scan labels for a day.
func (e *Env) Labels(day int) (ids.Labels, ids.Labels) {
	if lp, ok := e.labels[day]; ok {
		return lp.l2012, lp.l2013
	}
	idx := trace.BuildIndexOf(e.World.Days[day], evalFields)
	lp := labelPair{
		l2012: e.Oracles.IDS2012.Scan(idx),
		l2013: e.Oracles.IDS2013.Scan(idx),
	}
	e.labels[day] = lp
	return lp.l2012, lp.l2013
}

// Verdict is the verification outcome for a campaign or server.
type Verdict int

// Verdicts, in the paper's precedence order.
const (
	VerdictIDS2012Total Verdict = iota + 1
	VerdictIDS2013Total
	VerdictIDS2012Partial
	VerdictIDS2013Partial
	VerdictBlacklist
	VerdictNewServer // servers only: confirmed via shared patterns
	VerdictSuspicious
	VerdictFP
)

// String returns the verdict's display name.
func (v Verdict) String() string {
	switch v {
	case VerdictIDS2012Total:
		return "IDS 2012 total"
	case VerdictIDS2013Total:
		return "IDS 2013 total"
	case VerdictIDS2012Partial:
		return "IDS 2012 partial"
	case VerdictIDS2013Partial:
		return "IDS 2013 partial"
	case VerdictBlacklist:
		return "Blacklist"
	case VerdictNewServer:
		return "New Servers"
	case VerdictSuspicious:
		return "Suspicious"
	case VerdictFP:
		return "False Positives"
	default:
		return "unknown"
	}
}

// classifier carries the verification context for one report.
type classifier struct {
	l2012, l2013 ids.Labels
	bl           *ids.BlacklistSet
	idx          *trace.Index
	prober       webprobe.Prober
	truth        *synth.Truth
}

func (e *Env) classifier(day int, report *core.Report) *classifier {
	l2012, l2013 := e.Labels(day)
	return &classifier{
		l2012: l2012, l2013: l2013,
		bl:     e.Oracles.Blacklists,
		idx:    report.Index,
		prober: e.World.Prober,
		truth:  e.World.Truth,
	}
}

// serverSuspicious implements the paper's liveness/error heuristic: a server
// is "suspicious-confirmable" when its traffic is error-dominated or the
// domain no longer exists.
func (c *classifier) serverSuspicious(server string) bool {
	if info := c.idx.Servers[server]; info != nil && info.ErrorFraction() >= 0.5 {
		return true
	}
	return !c.prober.Exists(server)
}

// campaignVerdict classifies one inferred campaign (§V-A1).
func (c *classifier) campaignVerdict(cp *campaign.Campaign) Verdict {
	n := len(cp.Servers)
	in2012, in2013, blacklisted, suspicious := 0, 0, 0, 0
	for _, s := range cp.Servers {
		if c.l2012.Detected(s) {
			in2012++
		}
		if c.l2013.Detected(s) {
			in2013++
		}
		if c.bl.Confirmed(s) {
			blacklisted++
		}
		if c.serverSuspicious(s) {
			suspicious++
		}
	}
	switch {
	case in2012 == n:
		return VerdictIDS2012Total
	case in2013 == n:
		return VerdictIDS2013Total
	case in2012 > 0:
		return VerdictIDS2012Partial
	case in2013 > 0:
		return VerdictIDS2013Partial
	case blacklisted > 0:
		return VerdictBlacklist
	case suspicious*2 >= n:
		return VerdictSuspicious
	default:
		return VerdictFP
	}
}

// campaignIsNoise reports whether a majority of the campaign's servers
// belong to the ground-truth noise classes (Torrent / TeamViewer) — the
// paper's "FP (Updated)" adjustment removes these two known-benign classes.
func (c *classifier) campaignIsNoise(cp *campaign.Campaign) bool {
	noise := 0
	for _, s := range cp.Servers {
		if c.truth.Servers[s].Noise {
			noise++
		}
	}
	return noise*2 > len(cp.Servers)
}

// serverVerdicts classifies every server of a campaign (§V-A2): IDS2012,
// IDS2013 (new signatures only), Blacklist, New Server (pattern match with
// a confirmed server of the same campaign), Suspicious, FP.
func (c *classifier) serverVerdicts(cp *campaign.Campaign, campaignVerdict Verdict) map[string]Verdict {
	out := make(map[string]Verdict, len(cp.Servers))
	// First pass: direct confirmations.
	var confirmed []string
	for _, s := range cp.Servers {
		switch {
		case c.l2012.Detected(s):
			out[s] = VerdictIDS2012Total
			confirmed = append(confirmed, s)
		case c.l2013.Detected(s):
			out[s] = VerdictIDS2013Total
			confirmed = append(confirmed, s)
		case c.bl.Confirmed(s):
			out[s] = VerdictBlacklist
			confirmed = append(confirmed, s)
		}
	}
	// Second pass: unconfirmed servers become New Servers when they share
	// a URI file, User-Agent or query pattern with a confirmed campaign
	// member; else Suspicious (in suspicious campaigns) or FP.
	for _, s := range cp.Servers {
		if _, done := out[s]; done {
			continue
		}
		if c.sharesPattern(s, confirmed) {
			out[s] = VerdictNewServer
			continue
		}
		if campaignVerdict == VerdictSuspicious {
			out[s] = VerdictSuspicious
			continue
		}
		out[s] = VerdictFP
	}
	return out
}

// sharesPattern reports whether server s shares a URI file, User-Agent or
// query-parameter pattern with any of the confirmed servers.
func (c *classifier) sharesPattern(s string, confirmed []string) bool {
	info := c.idx.Servers[s]
	if info == nil {
		return false
	}
	for _, ref := range confirmed {
		refInfo := c.idx.Servers[ref]
		if refInfo == nil {
			continue
		}
		for f := range info.Files {
			if _, ok := refInfo.Files[f]; ok {
				return true
			}
		}
		for ua := range info.UserAgents {
			if _, ok := refInfo.UserAgents[ua]; ok {
				return true
			}
		}
		for q := range info.Queries {
			if _, ok := refInfo.Queries[q]; ok {
				return true
			}
		}
	}
	return false
}

// GroundTruthRecall computes how many ground-truth malicious servers the
// report detected, for the headline "N× the IDS+blacklist" comparison.
type GroundTruthRecall struct {
	// TruthServers is the number of ground-truth campaign servers active
	// in the evaluated traffic.
	TruthServers int
	// Detected is how many of those SMASH reported.
	Detected int
	// IDSDetected / BlacklistDetected count oracle coverage of the same
	// population (2013 signatures).
	IDSDetected, BlacklistDetected int
}

// Recall computes ground-truth recall for a day's report.
func (e *Env) Recall(day int, report *core.Report) GroundTruthRecall {
	_, l2013 := e.Labels(day)
	detected := make(map[string]bool)
	for _, c := range report.AllCampaigns() {
		for _, s := range c.Servers {
			detected[s] = true
		}
	}
	var rec GroundTruthRecall
	for s, st := range e.World.Truth.Servers {
		if st.Campaign == "" || st.Noise {
			continue
		}
		if _, active := report.RawIndex.Servers[s]; !active {
			continue // not active this day (agile rotation)
		}
		rec.TruthServers++
		if detected[s] {
			rec.Detected++
		}
		if l2013.Detected(s) {
			rec.IDSDetected++
		}
		if e.Oracles.Blacklists.Confirmed(s) {
			rec.BlacklistDetected++
		}
	}
	return rec
}
