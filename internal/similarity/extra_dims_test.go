package similarity

import (
	"testing"
	"time"

	"smash/internal/trace"
)

// indexFromRows builds an index from (client, host, ip, path, query, ua)
// that keeps the query and User-Agent fields.
func indexFromRows(rows [][6]string) *trace.Index {
	tr := &trace.Trace{}
	for _, r := range rows {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: time.Unix(0, 0), Client: r[0], Host: r[1], ServerIP: r[2],
			Path: r[3], Query: r[4], UserAgent: r[5], Status: 200,
		})
	}
	return trace.BuildIndexOf(tr, trace.FieldQueries|trace.FieldAgents)
}

func TestBuildQueryGraph(t *testing.T) {
	idx := indexFromRows([][6]string{
		// Campaign servers share the p&id&e parameter pattern with
		// different values and different files.
		{"bot", "cyc1.com", "1.1.1.1", "/a.php", "p=1&id=9&e=0", "x"},
		{"bot", "cyc2.com", "1.1.1.2", "/b.php", "p=7&id=3&e=1", "x"},
		// Benign server with a different pattern.
		{"u", "shop.com", "2.2.2.2", "/c.php", "item=5", "x"},
	})
	sg := BuildQueryGraph(idx, Options{})
	a, b := sg.IDs["cyc1.com"], sg.IDs["cyc2.com"]
	connected := false
	sg.G.Neighbors(a, func(v int, w float64) {
		if v == b && w == 1.0 {
			connected = true
		}
	})
	if !connected {
		t.Error("parameter-pattern pair not connected")
	}
	shop := sg.IDs["shop.com"]
	sg.G.Neighbors(shop, func(v int, w float64) {
		t.Errorf("shop.com connected to %s", sg.Names[v])
	})
}

func TestBuildQueryGraphNoQueries(t *testing.T) {
	idx := indexFromRows([][6]string{
		{"u", "a.com", "1.1.1.1", "/x", "", "ua"},
		{"u", "b.com", "1.1.1.2", "/y", "", "ua"},
	})
	sg := BuildQueryGraph(idx, Options{})
	if sg.G.EdgeCount() != 0 {
		t.Error("edges without any query patterns")
	}
}

func TestBuildUserAgentGraph(t *testing.T) {
	idx := indexFromRows([][6]string{
		// Sality-style distinctive UA shared by the campaign.
		{"bot", "cc1.com", "1.1.1.1", "/", "", "KUKU v5.05exp"},
		{"bot", "cc2.com", "1.1.1.2", "/", "", "KUKU v5.05exp"},
		{"u", "site.com", "2.2.2.2", "/", "", "Mozilla/5.0"},
	})
	sg := BuildUserAgentGraph(idx, Options{})
	a, b := sg.IDs["cc1.com"], sg.IDs["cc2.com"]
	connected := false
	sg.G.Neighbors(a, func(v int, w float64) {
		if v == b {
			connected = true
		}
	})
	if !connected {
		t.Error("shared-UA pair not connected")
	}
}

func TestBuildUserAgentGraphFanoutCap(t *testing.T) {
	// A ubiquitous browser UA must not link the whole web once it exceeds
	// the fan-out cap.
	var rows [][6]string
	for i := 0; i < 30; i++ {
		rows = append(rows, [6]string{"u", "s" + string(rune('a'+i)) + ".com",
			"1.1.1.1", "/", "", "CommonBrowser"})
	}
	idx := indexFromRows(rows)
	sg := BuildUserAgentGraph(idx, Options{MaxFanout: 10})
	if got := sg.G.EdgeCount(); got != 0 {
		t.Errorf("common UA created %d edges despite cap", got)
	}
}
