package tracker

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"smash/internal/campaign"
	"smash/internal/core"
	"smash/internal/synth"
)

// weekReports runs the detector over a small multi-day world once.
func weekReports(t *testing.T) (*synth.World, []*core.Report) {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		Name: "trackertest", Seed: 17, Days: 4,
		Clients: 350, BenignServers: 1000, MeanRequests: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	var reports []*core.Report
	for _, day := range w.Days {
		det := core.NewPipeline(core.WithSeed(5), core.WithWhois(w.Whois), core.WithProber(w.Prober))
		r, err := det.RunTrace(context.Background(), day)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	return w, reports
}

// lineageFor finds the lineage containing the most servers of a ground
// truth campaign.
func lineageFor(tk *Tracker, servers []string) *Lineage {
	var best *Lineage
	bestN := 0
	for _, l := range tk.Lineages() {
		n := 0
		for _, s := range servers {
			if l.Servers[s] > 0 {
				n++
			}
		}
		if n > bestN {
			best, bestN = l, n
		}
	}
	return best
}

func TestTrackerLinksAcrossDays(t *testing.T) {
	w, reports := weekReports(t)
	tk := New()
	for _, r := range reports {
		matches := tk.Observe(r)
		if len(matches) != len(r.AllCampaigns()) {
			t.Fatalf("matches = %d, campaigns = %d", len(matches), len(r.AllCampaigns()))
		}
	}
	if tk.Day() != len(reports) {
		t.Errorf("Day = %d", tk.Day())
	}

	// The agile fluxnet campaign: one lineage spanning all days, flagged
	// agile, accumulating a rotated server population.
	flux := w.Truth.Campaigns["fluxnet"]
	l := lineageFor(tk, flux.Servers)
	if l == nil {
		t.Fatal("fluxnet has no lineage")
	}
	if l.DaysActive < len(reports) {
		t.Errorf("fluxnet lineage active %d days, want %d", l.DaysActive, len(reports))
	}
	if !l.Agile() {
		t.Errorf("fluxnet lineage not agile: %s", l.Render())
	}
	if l.ServerCount() < flux.Spec.Servers*2 {
		t.Errorf("fluxnet lineage accumulated only %d servers over %d days",
			l.ServerCount(), len(reports))
	}

	// Sality is persistent: one lineage, same servers daily, not agile.
	sality := w.Truth.Campaigns["sality"]
	sl := lineageFor(tk, sality.Servers)
	if sl == nil {
		t.Fatal("sality has no lineage")
	}
	if sl.Agile() {
		t.Errorf("persistent sality flagged agile: %s", sl.Render())
	}
	if sl.DaysActive < len(reports)-1 {
		t.Errorf("sality active only %d days", sl.DaysActive)
	}

	// The late riser appears on day 3 (index 2).
	late := w.Truth.Campaigns["late-riser"]
	ll := lineageFor(tk, late.Servers)
	if ll == nil {
		t.Fatal("late-riser has no lineage")
	}
	if ll.FirstDay < 2 {
		t.Errorf("late-riser FirstDay = %d, want >= 2", ll.FirstDay)
	}
}

func TestTrackerSummary(t *testing.T) {
	_, reports := weekReports(t)
	tk := New()
	for _, r := range reports {
		tk.Observe(r)
	}
	out := tk.Summary()
	if !strings.Contains(out, "lineage") {
		t.Errorf("summary = %q", out)
	}
	if !strings.Contains(out, "agile") {
		t.Error("summary missing agile lineages")
	}
}

func TestTrackerSameDayCampaignsStaySeparate(t *testing.T) {
	_, reports := weekReports(t)
	tk := New()
	matches := tk.Observe(reports[0])
	seen := make(map[*Lineage]int)
	for _, m := range matches {
		seen[m.Lineage]++
		if m.Kind != MatchNew {
			t.Errorf("day-0 campaign matched kind %v", m.Kind)
		}
	}
	for l, n := range seen {
		if n > 1 {
			t.Errorf("lineage %d claimed by %d same-day campaigns", l.ID, n)
		}
	}
}

func TestMatchKindStrings(t *testing.T) {
	for _, m := range []MatchKind{MatchClients, MatchServers, MatchNew, MatchKind(0)} {
		if m.String() == "" {
			t.Errorf("kind %d empty", m)
		}
	}
}

// report builds a one-campaign report from raw server/client sets.
func report(servers, clients []string) *core.Report {
	return &core.Report{Campaigns: []campaign.Campaign{{
		Servers: servers, Clients: clients, Kind: campaign.KindCommunication,
	}}}
}

func TestRetirementPolicy(t *testing.T) {
	tk := New()
	tk.RetireAfter = 2
	servers := []string{"a.test", "b.test"}
	clients := []string{"c1", "c2"}
	tk.Observe(report(servers, clients)) // day 0: lineage 0 born
	empty := &core.Report{}
	tk.Observe(empty) // day 1: idle 1
	tk.Observe(empty) // day 2: idle 2 — still live
	if got := tk.Retired(); got != 0 {
		t.Fatalf("retired after %d idle days = %d, want 0", 2, got)
	}
	tk.Observe(empty) // day 3: idle 3 > RetireAfter — retired
	if got := tk.Retired(); got != 1 {
		t.Fatalf("retired = %d, want 1", got)
	}

	// The same clients return: a retired lineage must not match, so a new
	// lineage is born — but the retired one stays in Lineages.
	matches := tk.Observe(report(servers, clients))
	if matches[0].Kind != MatchNew {
		t.Errorf("campaign matched retired lineage: %v", matches[0].Kind)
	}
	if len(tk.Lineages()) != 2 {
		t.Errorf("lineages = %d, want 2 (retired one kept)", len(tk.Lineages()))
	}
	if !tk.Lineages()[0].Retired {
		t.Error("lineage 0 should stay retired")
	}
	if tk.Lineages()[0].Servers != nil || tk.Lineages()[0].Clients != nil {
		t.Error("retired lineage kept member maps")
	}
	if tk.Lineages()[0].ServerCount() != 2 || tk.Lineages()[0].ClientCount() != 2 {
		t.Errorf("retired lineage lost totals: %s", tk.Lineages()[0].Render())
	}
	sum := tk.Summary()
	if !strings.Contains(sum, "(1 retired)") || !strings.Contains(sum, "(retired)") {
		t.Errorf("summary does not report retirement:\n%s", sum)
	}
}

func TestRetirementKeepsActiveLineagesLive(t *testing.T) {
	tk := New()
	tk.RetireAfter = 3
	servers := []string{"a.test", "b.test"}
	clients := []string{"c1", "c2"}
	for i := 0; i < 10; i++ {
		matches := tk.Observe(report(servers, clients))
		if matches[0].Lineage.ID != 0 {
			t.Fatalf("day %d: active lineage retired or lost", i)
		}
	}
	if tk.Retired() != 0 {
		t.Errorf("active lineage retired")
	}
}

func TestStateRoundTrip(t *testing.T) {
	_, reports := weekReports(t)
	tk := New()
	tk.RetireAfter = 7
	for _, r := range reports[:2] {
		tk.Observe(r)
	}

	// JSON round trip through the serialized state must reproduce the
	// tracker exactly: same summary now, same assignments later.
	data, err := json.Marshal(tk.State())
	if err != nil {
		t.Fatal(err)
	}
	var s State
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	tk2 := FromState(s)
	if tk2.Summary() != tk.Summary() {
		t.Errorf("summary diverged:\n%s\nvs:\n%s", tk2.Summary(), tk.Summary())
	}
	if tk2.RetireAfter != 7 {
		t.Errorf("RetireAfter = %d", tk2.RetireAfter)
	}
	for _, r := range reports[2:] {
		tk.Observe(r)
		tk2.Observe(r)
	}
	if tk2.Summary() != tk.Summary() {
		t.Errorf("post-restore observations diverged:\n%s\nvs:\n%s", tk2.Summary(), tk.Summary())
	}
}

func TestStateIsDeepCopy(t *testing.T) {
	tk := New()
	tk.Observe(report([]string{"a.test"}, []string{"c1"}))
	s := tk.State()
	s.Lineages[0].Servers["mutant.test"] = 9
	s.Lineages[0].ID = 99
	if tk.Lineages()[0].Servers["mutant.test"] != 0 || tk.Lineages()[0].ID != 0 {
		t.Error("State shares memory with the tracker")
	}
	tk2 := FromState(s)
	s.Lineages[0].Servers["second.test"] = 1
	if tk2.Lineages()[0].Servers["second.test"] != 0 {
		t.Error("FromState shares memory with its input")
	}
}

func TestLineageAgileLogic(t *testing.T) {
	l := &Lineage{DaysActive: 1}
	if l.Agile() {
		t.Error("single-day lineage cannot be agile")
	}
	l = &Lineage{DaysActive: 4, AgileDays: 3}
	if !l.Agile() {
		t.Error("mostly-churning lineage should be agile")
	}
	l = &Lineage{DaysActive: 4, AgileDays: 0}
	if l.Agile() {
		t.Error("stable lineage flagged agile")
	}
}
