package cluster

import (
	"sort"
	"time"
)

// TreeNode is one node in the cluster topology tree (GET /v1/cluster): a
// sender as seen by its receiver, assembled from per-node watermarks and
// the hop metadata riding each fragment. Children below the first level
// are known only through hop trails — the shards behind a merge tier —
// so their skew is relative to their own parent and the per-node
// counters (Fragments, Requests, LateFragments) are zero for them.
type TreeNode struct {
	// Node and Role identify the sender ("ingest", "merge").
	Node string `json:"node"`
	Role string `json:"role,omitempty"`
	// LastWindow is the node's watermark: the highest window id seen
	// from it (math.MinInt64 before its first window fragment).
	LastWindow int64 `json:"lastWindow"`
	// LastSeen is when the node's traffic was last observed; LagSeconds
	// is how long ago that was at snapshot time.
	LastSeen   time.Time `json:"lastSeen,omitzero"`
	LagSeconds float64   `json:"lagSeconds"`
	// ClockSkewSeconds estimates the node's clock offset relative to the
	// process that stamped its hops' receive times (its parent); nil
	// until a stamped hop arrives. SkewWarn flags |skew| at or above
	// SkewWarnThreshold.
	ClockSkewSeconds *float64 `json:"clockSkewSeconds,omitempty"`
	SkewWarn         bool     `json:"skewWarn,omitempty"`
	// SpoolDwellSeconds is the node's most recently reported spool dwell
	// — nonzero means its fragments sat in a durable spool, i.e. this
	// link recently suffered an outage.
	SpoolDwellSeconds float64 `json:"spoolDwellSeconds,omitempty"`
	// Fragments and Requests count the node's accepted fragments and
	// their events; LateFragments counts its fragments dropped because
	// their window had already sealed.
	Fragments     int `json:"fragments,omitempty"`
	Requests      int `json:"requests,omitempty"`
	LateFragments int `json:"lateFragments,omitempty"`
	// Finished reports whether the node sent its final marker.
	// FinalOverdue flags a node still streaming after at least one peer
	// finished — the operator's cue that a final marker may have been
	// lost (its sender logs loudly when it gives one up).
	Finished     bool `json:"finished,omitempty"`
	FinalOverdue bool `json:"finalOverdue,omitempty"`
	// Children are the node's own known senders.
	Children []TreeNode `json:"children,omitempty"`
}

// Topology returns the aggregator's subtree: one TreeNode per known
// sender, sorted by name, each carrying the deeper senders its hop
// trails revealed.
func (a *Aggregator) Topology() []TreeNode {
	a.nodeMu.Lock()
	defer a.nodeMu.Unlock()
	anyFinished := false
	for _, n := range a.nodes {
		if n.finished {
			anyFinished = true
			break
		}
	}
	return treeNodes(a.nodes, time.Now(), anyFinished)
}

func treeNodes(nodes map[string]*nodeState, now time.Time, anyFinished bool) []TreeNode {
	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TreeNode, 0, len(nodes))
	for _, name := range names {
		n := nodes[name]
		skew, warn := n.skewSeconds()
		t := TreeNode{
			Node:              name,
			Role:              n.role,
			Fragments:         n.fragments,
			Requests:          n.requests,
			LateFragments:     n.late,
			LastWindow:        n.last,
			LastSeen:          n.lastSeen,
			ClockSkewSeconds:  skew,
			SkewWarn:          warn,
			SpoolDwellSeconds: n.dwell.Seconds(),
			Finished:          n.finished,
			FinalOverdue:      anyFinished && !n.finished,
		}
		if !n.lastSeen.IsZero() {
			t.LagSeconds = max(now.Sub(n.lastSeen).Seconds(), 0)
		}
		if len(n.remotes) > 0 {
			// Remotes carry no final markers of their own, so the
			// overdue flag does not apply below the first level.
			t.Children = treeNodes(n.remotes, now, false)
		}
		out = append(out, t)
	}
	return out
}
