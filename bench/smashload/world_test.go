package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"smash/internal/cluster"
	"smash/internal/core"
	"smash/internal/synth"
	"smash/internal/trace"
)

// smallSpec is a 250-client world: a day is ~8k events.
var smallSpec = WorldSpec{Name: "small", Seed: 7, Days: 3, Clients: 250, BenignServers: 600, MeanRequests: 25}

func smallWorld(t *testing.T, parts int) *world {
	t.Helper()
	sw, err := generate(smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := newWorld(sw, parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// parse decodes a partition's rendered lines.
func parse(t *testing.T, p *partition) []trace.Request {
	t.Helper()
	var out []trace.Request
	for _, line := range strings.Split(strings.TrimSuffix(string(p.tsv), "\n"), "\n") {
		req, err := trace.ParseRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, req)
	}
	return out
}

func TestRetimingIsDeterministicAndInOrder(t *testing.T) {
	a, b := smallWorld(t, 1), smallWorld(t, 1)
	a.retime(3)
	b.retime(3)
	if !bytes.Equal(a.parts[0].tsv, b.parts[0].tsv) {
		t.Fatal("the same seed rendered different bytes")
	}

	// Every day's events cover its 24 h, in generator order, strictly
	// increasing; pass p is pass 0 shifted by p weeks and nothing else.
	a.retime(0)
	pass0 := parse(t, &a.parts[0])
	a.retime(3)
	pass3 := parse(t, &a.parts[0])
	if len(pass0) != a.events() {
		t.Fatalf("rendered %d lines for %d events", len(pass0), a.events())
	}
	i := 0
	renamed, taken := map[string]string{}, map[string]bool{}
	for d, dayTrace := range a.synth.Days {
		for j := range dayTrace.Requests {
			want := dayTrace.Requests[j]
			got := pass0[i]
			if i > 0 && !got.Time.After(pass0[i-1].Time) {
				t.Fatalf("event %d is not after its predecessor", i)
			}
			if dayOf := got.Time.Sub(a.synth.Config.BaseTime) / (24 * time.Hour); int(dayOf) != d {
				t.Fatalf("event %d of day %d was retimed into day %d", i, d, dayOf)
			}
			if shift := pass3[i].Time.Sub(got.Time); shift != 3*time.Duration(a.span) {
				t.Fatalf("pass 3 shifts event %d by %v, want %v", i, shift, 3*time.Duration(a.span))
			}
			// Clients are renamed one to one, and nothing else is.
			if to, ok := renamed[want.Client]; !ok {
				if taken[got.Client] {
					t.Fatalf("event %d: two clients were both renamed %s", i, got.Client)
				}
				renamed[want.Client], taken[got.Client] = got.Client, true
			} else if to != got.Client {
				t.Fatalf("event %d: client %s renamed %s here, %s before", i, want.Client, got.Client, to)
			}
			want.Client = got.Client
			want.Time, pass3[i].Time = got.Time, got.Time
			if want.UserAgent == "-" {
				want.UserAgent = "" // TSV spells an empty field "-"
			}
			if got != want || pass3[i] != want {
				t.Fatalf("event %d changed beyond its timestamp:\n got %+v\nwant %+v", i, got, want)
			}
			i++
		}
		last := pass0[i-1].Time.Sub(a.synth.Config.BaseTime) - time.Duration(d)*24*time.Hour
		if last < 23*time.Hour {
			t.Errorf("day %d's last event is at %v; the day should be covered", d, last)
		}
	}
}

func TestSeedRenamesClientsOnly(t *testing.T) {
	sw, err := generate(smallSpec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newWorld(sw, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newWorld(sw, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := parse(t, &a.parts[0]), parse(t, &b.parts[0])
	differ := 0
	for i := range ra {
		if ra[i].Client != rb[i].Client {
			differ++
		}
		ra[i].Client = rb[i].Client
		if ra[i] != rb[i] {
			t.Fatalf("event %d differs beyond its client between seeds", i)
		}
	}
	if differ < len(ra)*9/10 {
		t.Errorf("only %d of %d events changed client between seeds", differ, len(ra))
	}
}

func TestPartitionsFollowTheClusterHash(t *testing.T) {
	wl := smallWorld(t, 2)
	total := 0
	for k := range wl.parts {
		p := &wl.parts[k]
		reqs := parse(t, p)
		total += len(reqs)
		for i, r := range reqs {
			if got := cluster.PartitionOf(r.Client, 2); got != k {
				t.Fatalf("partition %d line %d belongs to partition %d", k, i, got)
			}
			if i > 0 && !r.Time.After(reqs[i-1].Time) {
				t.Fatalf("partition %d line %d out of order", k, i)
			}
		}
		if int(p.cum[wl.events()]) != len(reqs) || len(p.start) != len(reqs)+1 {
			t.Fatalf("partition %d: index arrays disagree with %d lines", k, len(reqs))
		}
	}
	if total != wl.events() {
		t.Fatalf("partitions hold %d events, the world %d", total, wl.events())
	}
	// A batch's per-partition slices are exactly its events.
	a, b := 1000, 1128
	n := 0
	for k := range wl.parts {
		n += bytes.Count(wl.slice(k, a, b), []byte("\n"))
	}
	if n != b-a {
		t.Fatalf("batch [%d,%d) sliced into %d lines", a, b, n)
	}
}

func TestSchedule(t *testing.T) {
	h := int64(time.Hour)
	// Two days, four events each at 0h, 6h, 12h, 18h.
	off := []int64{0, 6 * h, 12 * h, 18 * h, 24 * h, 30 * h, 36 * h, 42 * h}
	tumbling := schedule{off: off, span: 48 * h, window: 24 * h, stride: 24 * h, n: 16} // two passes
	if got := tumbling.windows(); got != 4 {
		t.Errorf("tumbling windows = %d, want 4", got)
	}
	for w, want := range []int64{4, 8, 12} {
		if g, ok := tumbling.sealedBy(w); !ok || g != want {
			t.Errorf("tumbling window %d sealed by %d (%v), want %d", w, g, ok, want)
		}
	}
	if _, ok := tumbling.sealedBy(3); ok {
		t.Error("the last tumbling window is sealed only by end of stream")
	}
	for w := 0; w < 4; w++ {
		if got := tumbling.requests(w); got != 4 {
			t.Errorf("tumbling window %d holds %d requests, want 4", w, got)
		}
	}

	sliding := schedule{off: off, span: 48 * h, window: 24 * h, stride: 6 * h, n: 8} // one pass
	if got := sliding.windows(); got != 8 {
		t.Errorf("sliding windows = %d, want 8", got)
	}
	wantReq := []int{4, 4, 4, 4, 4, 3, 2, 1}
	for w, want := range wantReq {
		if got := sliding.requests(w); got != want {
			t.Errorf("sliding window %d holds %d requests, want %d", w, got, want)
		}
	}
	if g, ok := sliding.sealedBy(0); !ok || g != 4 {
		t.Errorf("sliding window 0 sealed by %d (%v), want 4", g, ok)
	}
	if _, ok := sliding.sealedBy(4); ok {
		t.Error("sliding window 4 ends at the stream's end; no event seals it")
	}
	if sliding.perPass() != 8 {
		t.Errorf("perPass = %d, want 8", sliding.perPass())
	}
}

func TestWholeDays(t *testing.T) {
	wl := smallWorld(t, 1)
	per := int64(wl.events())
	d0, d1 := int64(wl.dayEnd[0]), int64(wl.dayEnd[1])
	for _, tc := range []struct{ limit, want int64 }{
		{d0 - 1, 0}, {d0, d0}, {d1 + 5, d1}, {per, per}, {per + d0 - 1, per}, {2*per + d1, 2*per + d1},
	} {
		if got := wl.wholeDays(tc.limit); got != tc.want {
			t.Errorf("wholeDays(%d) = %d, want %d", tc.limit, got, tc.want)
		}
	}
}

// TestScoreMatchesAblationMetrics recomputes recall and false positives
// the way bench_test.go's ablationMetrics does — against the detector's
// own raw index — and requires score to agree.
func TestScoreMatchesAblationMetrics(t *testing.T) {
	sw, err := synth.Generate(synth.Config{
		Name: "Data2011day", Seed: 42, Days: 1, Clients: 250, BenignServers: 600, MeanRequests: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.New(core.WithSeed(1), core.WithWhois(sw.Whois), core.WithProber(sw.Prober)).Run(sw.Trace())
	if err != nil {
		t.Fatal(err)
	}
	detected := make(map[string]bool)
	for _, c := range report.AllCampaigns() {
		for _, s := range c.Servers {
			detected[s] = true
		}
	}
	truth, found, fp := 0, 0, 0
	for s := range detected {
		st, ok := sw.Truth.Servers[s]
		if !ok || (st.Campaign == "" && !st.Noise) {
			fp++
		}
	}
	for s, st := range sw.Truth.Servers {
		if st.Campaign == "" || st.Noise {
			continue
		}
		if _, active := report.RawIndex.Servers[s]; !active {
			continue
		}
		truth++
		if detected[s] {
			found++
		}
	}
	if truth == 0 || found == 0 {
		t.Fatalf("degenerate world: truth=%d found=%d", truth, found)
	}
	recall, precision := score(sw, detected)
	if want := float64(found) / float64(truth); recall != want {
		t.Errorf("recall = %v, ablationMetrics computes %v", recall, want)
	}
	if want := float64(found) / float64(found+fp); precision != want {
		t.Errorf("precision = %v, ablationMetrics' counts give %v", precision, want)
	}

	// A noise server counts neither for nor against.
	for s, st := range sw.Truth.Servers {
		if st.Noise {
			detected[s] = true
		}
	}
	if r2, p2 := score(sw, detected); r2 != recall || p2 != precision {
		t.Errorf("detecting noise servers moved (recall, precision) from (%v, %v) to (%v, %v)", recall, precision, r2, p2)
	}
}
