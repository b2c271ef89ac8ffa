package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"smash/internal/herd"
	"smash/internal/similarity"
	"smash/internal/trace"
)

// parameterCampaignTrace builds the paper's false-negative scenario
// (§V-A2): a campaign whose servers share NO built-in secondary dimension —
// different URI files, different IPs, no whois — but use the same URI
// parameter pattern (Cycbot/FakeAV/Tidserv style). Background servers give
// Louvain something to separate from.
func parameterCampaignTrace() (*trace.Trace, []string) {
	tr := &trace.Trace{Name: "param-campaign"}
	add := func(client, host, ip, path, query string) {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: time.Unix(0, 0), Client: client, Host: host, ServerIP: ip,
			Path: path, Query: query, UserAgent: "bot", Status: 200,
		})
	}
	var campaign []string
	for i := 0; i < 8; i++ {
		host := fmt.Sprintf("cyc%d.com", i)
		campaign = append(campaign, host)
		for _, bot := range []string{"bot1", "bot2"} {
			// Distinct file and IP per server; shared parameter pattern.
			add(bot, host, fmt.Sprintf("9.9.9.%d", i),
				fmt.Sprintf("/h%d.php", i),
				fmt.Sprintf("v=%d&tid=%d&cb=%d", i, i*7, i*13))
		}
	}
	for i := 0; i < 30; i++ {
		host := fmt.Sprintf("bg%d.com", i)
		for c := 0; c < 2; c++ {
			add(fmt.Sprintf("user%d-%d", i, c), host,
				fmt.Sprintf("8.8.%d.%d", i, c), fmt.Sprintf("/p%d.html", i), "")
		}
	}
	return tr, campaign
}

func TestQueryDimensionRecoversParameterCampaign(t *testing.T) {
	tr, campaign := parameterCampaignTrace()

	// Without the query dimension the campaign shares nothing secondary:
	// it must be missed (the paper's false negative).
	base := NewPipeline(WithSeed(3))
	baseReport, err := base.RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	baseDetected := detectedSet(baseReport)
	for _, s := range campaign {
		if baseDetected[s] {
			t.Fatalf("server %s detected without the query dimension; scenario broken", s)
		}
	}

	// With the query-pattern extra dimension the campaign is recovered.
	ext := NewPipeline(WithSeed(3), WithExtraDimension(herd.QueryDimension(similarity.Options{})))
	extReport, err := ext.RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	extDetected := detectedSet(extReport)
	found := 0
	for _, s := range campaign {
		if extDetected[s] {
			found++
		}
	}
	if found < len(campaign) {
		t.Errorf("query dimension recovered only %d/%d parameter-pattern servers", found, len(campaign))
	}
	// Background servers stay clean.
	for s := range extDetected {
		if len(s) > 2 && s[:2] == "bg" {
			t.Errorf("background server %s detected", s)
		}
	}
}

func detectedSet(r *Report) map[string]bool {
	out := make(map[string]bool)
	for _, c := range r.AllCampaigns() {
		for _, s := range c.Servers {
			out[s] = true
		}
	}
	return out
}

func TestUserAgentDimensionConstructor(t *testing.T) {
	d := herd.UserAgentDimension(similarity.Options{})
	if d.Name() != similarity.DimUserAgent {
		t.Errorf("name = %q", d.Name())
	}
	tr, _ := parameterCampaignTrace()
	sg := d.Build(trace.BuildIndexOf(tr, d.Fields()))
	if sg.G.N() == 0 {
		t.Error("empty graph")
	}
}
