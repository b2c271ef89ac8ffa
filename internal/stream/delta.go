package stream

import (
	"fmt"
	"strings"
	"time"

	"smash/internal/campaign"
	"smash/internal/core"
	"smash/internal/trace"
	"smash/internal/tracker"
	"smash/internal/wire"
)

// WindowResult is the engine's output for one sealed window, emitted in
// window order.
type WindowResult struct {
	// Seq numbers emitted windows from 0.
	Seq int
	// Start and End bound the window's half-open interval [Start, End).
	Start, End time.Time
	// Requests is the number of indexed requests in the window.
	Requests int
	// Report is the detection report; nil for empty windows.
	Report *core.Report
	// Matches are the tracker's lineage assignments, aligned with
	// Report.AllCampaigns().
	Matches []tracker.Match
	// Deltas describe how each campaign moved its lineage this window.
	Deltas []Delta
	// Index is the window's merged traffic index, populated only by a
	// detecting engine under Config.KeepIndex. Read-only: it is shared
	// with every sink and may alias engine-internal state.
	Index *trace.Index
	// Payload is the window's merged index in canonical wire form, set
	// instead of Index by every forward-only node — an IndexOnly engine
	// or cluster aggregator (a merge tier) — whose Forwarder sink ships
	// the bytes as they are.
	Payload []byte
	// Hops is the combined hop trail of the child fragments merged into
	// this window, set only by an IndexOnly cluster aggregator (a merge
	// tier): its Forwarder sink carries the trail upstream so the root
	// sees the whole path.
	Hops []wire.Hop
}

// Empty reports whether the window contained no events.
func (w *WindowResult) Empty() bool { return w.Requests == 0 }

// Render formats the window as a one-line summary.
func (w *WindowResult) Render() string {
	campaigns := 0
	if w.Report != nil {
		campaigns = len(w.Report.Campaigns) + len(w.Report.SingleClientCampaigns)
	}
	return fmt.Sprintf("window %d [%s .. %s) requests=%d campaigns=%d",
		w.Seq, w.Start.Format(time.RFC3339), w.End.Format(time.RFC3339),
		w.Requests, campaigns)
}

// DeltaKind classifies how a campaign moved its lineage in one window.
type DeltaKind int

// Delta kinds.
const (
	// Appear means a new lineage was born: a campaign with no overlap to
	// any known lineage.
	Appear DeltaKind = iota + 1
	// Persist means the campaign continued a lineage keeping most of its
	// server pool.
	Persist
	// Rotate means the lineage's infected clients reappeared behind a
	// mostly new server pool — the paper's agile campaign signature
	// (§V-B).
	Rotate
	// Retire means the tracker retired the lineage this window: it had
	// been idle for more than the RetireAfter policy, its member history
	// was pruned and it no longer participates in matching. Emitted only
	// when retirement is enabled (RetireAfter > 0).
	Retire
)

// String names the delta kind.
func (k DeltaKind) String() string {
	switch k {
	case Appear:
		return "appear"
	case Persist:
		return "persist"
	case Rotate:
		return "rotate"
	case Retire:
		return "retire"
	default:
		return "unknown"
	}
}

// Delta is one campaign-lineage transition observed in a window.
type Delta struct {
	// Window is the emitting window's Seq.
	Window int `json:"window"`
	// Kind is the transition type.
	Kind DeltaKind `json:"-"`
	// KindName is Kind's name (for JSON output).
	KindName string `json:"kind"`
	// Lineage is the tracker lineage ID the campaign joined.
	Lineage int `json:"lineage"`
	// Campaign is the campaign's activity classification.
	Campaign string `json:"campaign"`
	// Servers and Clients size the campaign this window.
	Servers int `json:"servers"`
	Clients int `json:"clients"`
	// NewServers lists servers the lineage had never seen before.
	NewServers []string `json:"newServers,omitempty"`
	// ServerOverlap is the fraction of the campaign's servers already
	// known to the lineage.
	ServerOverlap float64 `json:"serverOverlap"`
}

// Render formats the delta for the text UI.
func (d *Delta) Render() string {
	if d.Kind == Retire {
		return fmt.Sprintf("%-7s lineage %d [idle]", d.Kind, d.Lineage)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s lineage %d [%s] servers=%d clients=%d overlap=%.2f",
		d.Kind, d.Lineage, d.Campaign, d.Servers, d.Clients, d.ServerOverlap)
	if len(d.NewServers) > 0 {
		fmt.Fprintf(&b, " new=%d", len(d.NewServers))
	}
	return b.String()
}

// DeltasFor classifies every tracker match of one window into deltas.
// campaigns must be the report's AllCampaigns() slice the matches were
// produced from. Exported for consumers that drive a tracker outside the
// engine — internal/cluster's aggregator reuses it so cluster runs emit
// exactly the deltas a single-node run would.
func DeltasFor(window int, campaigns []campaign.Campaign, matches []tracker.Match) []Delta {
	var out []Delta
	for i := range matches {
		out = append(out, makeDelta(window, &campaigns[i], matches[i]))
	}
	return out
}

// RetireDeltas converts the tracker's per-window retirement list
// (Tracker.RetiredNow) into retire deltas. Retirement happens before the
// window's campaigns are matched, so these precede the window's other
// deltas. Shared by the engine and the cluster aggregator for parity.
func RetireDeltas(window int, ids []int) []Delta {
	if len(ids) == 0 {
		return nil
	}
	out := make([]Delta, 0, len(ids))
	for _, id := range ids {
		out = append(out, Delta{
			Window:   window,
			Kind:     Retire,
			KindName: Retire.String(),
			Lineage:  id,
		})
	}
	return out
}

// makeDelta classifies one tracker match. The lineage has already absorbed
// the campaign, so a server seen exactly once by the lineage is new this
// window.
func makeDelta(window int, c *campaign.Campaign, m tracker.Match) Delta {
	kind := Persist
	switch {
	case m.Kind == tracker.MatchNew:
		kind = Appear
	case m.Kind == tracker.MatchClients && m.ServerOverlap < 0.5:
		kind = Rotate
	}
	var fresh []string
	for _, s := range c.Servers {
		if m.Lineage.Servers[s] == 1 {
			fresh = append(fresh, s)
		}
	}
	return Delta{
		Window:        window,
		Kind:          kind,
		KindName:      kind.String(),
		Lineage:       m.Lineage.ID,
		Campaign:      c.Kind.String(),
		Servers:       len(c.Servers),
		Clients:       len(c.Clients),
		NewServers:    fresh,
		ServerOverlap: m.ServerOverlap,
	}
}
