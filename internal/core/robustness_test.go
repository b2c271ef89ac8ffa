package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"smash/internal/similarity"
	"smash/internal/trace"
)

func mkReq(client, host, ip, path string) trace.Request {
	return trace.Request{
		Time: time.Unix(0, 0), Client: client, Host: host, ServerIP: ip,
		Path: path, Status: 200,
	}
}

// Degenerate inputs must never panic and must return sane (usually empty)
// reports.
func TestRunDegenerateTraces(t *testing.T) {
	tests := []struct {
		name string
		tr   *trace.Trace
	}{
		{"single request", &trace.Trace{Requests: []trace.Request{
			mkReq("c", "a.com", "1.1.1.1", "/x"),
		}}},
		{"one client many servers", func() *trace.Trace {
			tr := &trace.Trace{}
			for i := 0; i < 50; i++ {
				tr.Requests = append(tr.Requests, mkReq("c", fmt.Sprintf("s%d.com", i), "1.1.1.1", "/x"))
			}
			return tr
		}()},
		{"many clients one server", func() *trace.Trace {
			tr := &trace.Trace{}
			for i := 0; i < 50; i++ {
				tr.Requests = append(tr.Requests, mkReq(fmt.Sprintf("c%d", i), "hub.com", "1.1.1.1", "/x"))
			}
			return tr
		}()},
		{"hostless requests", &trace.Trace{Requests: []trace.Request{
			mkReq("c1", "", "5.5.5.5", "/x"),
			mkReq("c2", "", "5.5.5.5", "/x"),
		}}},
		{"empty fields", &trace.Trace{Requests: []trace.Request{
			{Time: time.Unix(0, 0), Client: "c"},
		}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			det := NewPipeline(WithSeed(1))
			report, err := det.RunTrace(context.Background(), tt.tr)
			if err != nil {
				t.Fatalf("degenerate trace errored: %v", err)
			}
			for _, c := range report.AllCampaigns() {
				if len(c.Servers) < 2 {
					t.Errorf("campaign with %d servers reported", len(c.Servers))
				}
			}
		})
	}
}

// One client visiting everything must not produce campaigns: its servers
// form a single-client ASH, but nothing correlates across secondary
// dimensions.
func TestRunSingleCrawlerClient(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 60; i++ {
		tr.Requests = append(tr.Requests, mkReq("crawler",
			fmt.Sprintf("s%d.com", i), fmt.Sprintf("1.1.%d.%d", i/250, i%250),
			fmt.Sprintf("/page%d.html", i)))
	}
	report, err := NewPipeline(WithSeed(1)).RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(report.AllCampaigns()); n != 0 {
		t.Errorf("crawler produced %d campaigns", n)
	}
}

func TestOptionsCoverage(t *testing.T) {
	// Exercise the remaining option setters end-to-end on a tiny trace.
	tr := &trace.Trace{}
	for i := 0; i < 8; i++ {
		for _, bot := range []string{"b1", "b2"} {
			tr.Requests = append(tr.Requests,
				mkReq(bot, fmt.Sprintf("evil%d.com", i), "9.9.9.9", "/login.php"))
		}
	}
	det := NewPipeline(
		WithSeed(2),
		WithIDFThreshold(100),
		WithSigma(4, 5.5),
		WithSimilarityOptions(similarity.Options{MinSimilarity: 0.02}),
		WithMinClients(2),
		WithoutWhoisDimension(),
	)
	report, err := det.RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Campaigns) == 0 {
		t.Error("shared-IP shared-file herd not detected")
	}
}

func TestComponentMiningOption(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 8; i++ {
		for _, bot := range []string{"b1", "b2"} {
			tr.Requests = append(tr.Requests,
				mkReq(bot, fmt.Sprintf("evil%d.com", i), "9.9.9.9", "/login.php"))
		}
	}
	report, err := NewPipeline(WithSeed(2), WithComponentMining()).RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if report.MainHerds == 0 {
		t.Error("component mining produced no herds")
	}
}

func TestSummarizeAndJSON(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 8; i++ {
		for _, bot := range []string{"b1", "b2"} {
			tr.Requests = append(tr.Requests,
				mkReq(bot, fmt.Sprintf("evil%d.com", i), "9.9.9.9", "/login.php"))
		}
	}
	tr.Requests = append(tr.Requests, mkReq("lone", "x1.com", "8.8.8.1", "/gate.php"))
	tr.Requests = append(tr.Requests, mkReq("lone", "x2.com", "8.8.8.1", "/gate.php"))
	report, err := NewPipeline(WithSeed(2)).RunTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	summary := report.Summarize()
	if summary.Trace.Requests != len(tr.Requests) {
		t.Errorf("summary requests = %d", summary.Trace.Requests)
	}
	if len(summary.Campaigns) != len(report.AllCampaigns()) {
		t.Errorf("summary campaigns = %d, want %d",
			len(summary.Campaigns), len(report.AllCampaigns()))
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Summary
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if round.Trace.Name != summary.Trace.Name || round.MainHerds != summary.MainHerds {
		t.Error("round-tripped summary differs")
	}
	if !strings.Contains(buf.String(), "secondaryHerds") {
		t.Error("JSON missing secondaryHerds")
	}
}
