package core

import (
	"context"
	"testing"

	"smash/internal/herd"
	"smash/internal/similarity"
	"smash/internal/synth"
	"smash/internal/trace"
)

// testWorld generates a small deterministic world once per test binary.
var testWorldCache *synth.World

func testWorld(t *testing.T) *synth.World {
	t.Helper()
	if testWorldCache != nil {
		return testWorldCache
	}
	w, err := synth.Generate(synth.Config{
		Name: "coretest", Seed: 11, Days: 1,
		Clients: 400, BenignServers: 1200, MeanRequests: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	testWorldCache = w
	return w
}

func runDetector(t *testing.T, w *synth.World, opts ...Option) *Report {
	t.Helper()
	all := append([]Option{
		WithSeed(7),
		WithWhois(w.Whois),
		WithProber(w.Prober),
	}, opts...)
	det := NewPipeline(all...)
	report, err := det.RunTrace(context.Background(), w.Trace())
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestRunEmptyTrace(t *testing.T) {
	det := NewPipeline()
	if _, err := det.RunTrace(context.Background(), &trace.Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := det.RunTrace(context.Background(), nil); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestPipelineFindsPlantedCampaigns(t *testing.T) {
	w := testWorld(t)
	report := runDetector(t, w)
	if len(report.Campaigns) == 0 {
		t.Fatal("no campaigns inferred")
	}

	detected := make(map[string]bool)
	for _, c := range report.AllCampaigns() {
		for _, s := range c.Servers {
			detected[s] = true
		}
	}
	// Core recall check on the strongly-correlated campaigns: zeus (shared
	// IP + same file + same clients) and fluxnet.
	for _, name := range []string{"zeus", "fluxnet", "sality"} {
		ct := w.Truth.Campaigns[name]
		found := 0
		for _, s := range ct.Servers {
			if detected[s] {
				found++
			}
		}
		if found < len(ct.Servers)/2 {
			t.Errorf("campaign %s: only %d/%d servers detected", name, found, len(ct.Servers))
		}
	}
}

func TestPipelinePrecision(t *testing.T) {
	w := testWorld(t)
	report := runDetector(t, w)
	fp := 0
	total := 0
	var fps []string
	for _, c := range report.AllCampaigns() {
		for _, s := range c.Servers {
			total++
			st, ok := w.Truth.Servers[s]
			if !ok || st.Campaign == "" {
				if !ok {
					fp++
					fps = append(fps, s)
				}
				// Noise servers are the paper's known FP classes and are
				// expected to appear.
			}
		}
	}
	if total == 0 {
		t.Fatal("no servers detected")
	}
	if frac := float64(fp) / float64(total); frac > 0.25 {
		t.Errorf("false positive fraction %.2f too high (%d/%d): %v", frac, fp, total, fps)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	w := testWorld(t)
	r1 := runDetector(t, w)
	r2 := runDetector(t, w)
	if len(r1.Campaigns) != len(r2.Campaigns) {
		t.Fatalf("campaign counts differ: %d vs %d", len(r1.Campaigns), len(r2.Campaigns))
	}
	for i := range r1.Campaigns {
		a, b := r1.Campaigns[i], r2.Campaigns[i]
		if len(a.Servers) != len(b.Servers) {
			t.Fatalf("campaign %d sizes differ", i)
		}
		for j := range a.Servers {
			if a.Servers[j] != b.Servers[j] {
				t.Fatalf("campaign %d member %d differs", i, j)
			}
		}
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	w := testWorld(t)
	var prevServers int
	first := true
	for _, thresh := range []float64{0.5, 0.8, 1.0, 1.5} {
		report := runDetector(t, w, WithThreshold(thresh), WithSingleClientThreshold(thresh))
		n := len(CampaignServers(report.AllCampaigns()))
		if !first && n > prevServers {
			t.Errorf("thresh %g found %d servers, more than previous %d", thresh, n, prevServers)
		}
		prevServers = n
		first = false
	}
	if prevServers < 0 {
		t.Fatal("unreachable")
	}
}

func TestZeroDayDetection(t *testing.T) {
	// Zeus has zero IDS2012 coverage but SMASH must find it: the
	// unsupervised pipeline needs no signatures.
	w := testWorld(t)
	report := runDetector(t, w)
	oracles := synth.BuildOracles(w)
	labels2012 := oracles.IDS2012.Scan(report.Index)
	zeus := w.Truth.Campaigns["zeus"]
	detected := make(map[string]bool)
	for _, c := range report.AllCampaigns() {
		for _, s := range c.Servers {
			detected[s] = true
		}
	}
	smashFound, idsFound := 0, 0
	for _, s := range zeus.Servers {
		if detected[s] {
			smashFound++
		}
		if labels2012.Detected(s) {
			idsFound++
		}
	}
	if idsFound != 0 {
		t.Fatalf("test setup broken: IDS2012 knows zeus")
	}
	if smashFound < len(zeus.Servers)/2 {
		t.Errorf("zero-day: SMASH found only %d/%d zeus servers", smashFound, len(zeus.Servers))
	}
}

func TestSingleClientSplit(t *testing.T) {
	w := testWorld(t)
	report := runDetector(t, w)
	for _, c := range report.Campaigns {
		if len(c.Clients) < 2 {
			t.Errorf("multi-client campaign %d has %d clients", c.ID, len(c.Clients))
		}
	}
	// The world plants six single-bot campaigns; at least some must
	// surface in the single-client set.
	if len(report.SingleClientCampaigns) == 0 {
		t.Error("no single-client campaigns found despite planted lone-flux campaigns")
	}
}

func TestDecomposition(t *testing.T) {
	w := testWorld(t)
	report := runDetector(t, w)
	decomp := report.Decomposition()
	if len(decomp) == 0 {
		t.Fatal("empty decomposition")
	}
	totalFile := 0
	total := 0
	for combo, n := range decomp {
		total += n
		if containsDim(combo, similarity.DimFile) {
			totalFile += n
		}
	}
	// The paper finds the URI-file dimension dominant; our world mirrors
	// that (most campaigns share handler scripts).
	if totalFile*2 < total {
		t.Errorf("file dimension contributes only %d/%d servers", totalFile, total)
	}
}

func containsDim(combo, dim string) bool {
	for len(combo) > 0 {
		i := 0
		for i < len(combo) && combo[i] != '+' {
			i++
		}
		if combo[:i] == dim {
			return true
		}
		if i == len(combo) {
			break
		}
		combo = combo[i+1:]
	}
	return false
}

func TestNicheClustersPruned(t *testing.T) {
	// The niche browsing clusters form main-dimension herds but share no
	// secondary dimension; they must not be reported.
	w := testWorld(t)
	report := runDetector(t, w)
	for _, c := range report.AllCampaigns() {
		for _, s := range c.Servers {
			if len(s) > 5 && s[:5] == "niche" {
				t.Errorf("niche cluster server %s reported as malicious", s)
			}
		}
	}
}

func TestPreprocessingRan(t *testing.T) {
	w := testWorld(t)
	report := runDetector(t, w)
	if report.Preprocess.ServersBefore == 0 {
		t.Error("preprocess stats empty")
	}
	if report.TraceStats.Requests == 0 {
		t.Error("trace stats empty")
	}
	if report.MainHerds == 0 {
		t.Error("no main herds")
	}
	if len(report.SecondaryHerds) < 3 {
		t.Errorf("secondary herd dims = %v", report.SecondaryHerds)
	}
}

// The preprocess stage builds Report.Index beside Report.RawIndex instead
// of filtering a deep copy: a whole run must leave the raw index exactly as
// it was handed in, and the filtered index must be the raw one minus the
// servers the report says were removed.
func TestRunLeavesRawIndexUntouched(t *testing.T) {
	w := testWorld(t)
	raw := trace.BuildIndex(w.Trace())
	before := raw.Fingerprint()
	report, err := NewPipeline(WithSeed(7), WithWhois(w.Whois), WithProber(w.Prober)).Run(context.Background(), raw, w.Trace().ComputeStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Preprocess.Removed) == 0 {
		t.Fatal("nothing filtered: the fixture does not exercise the stage")
	}
	if report.RawIndex != raw || raw.Fingerprint() != before {
		t.Error("the run changed the raw index")
	}
	want := raw.Clone()
	for _, key := range report.Preprocess.Removed {
		want.Remove(key)
	}
	if report.Index.Fingerprint() != want.Fingerprint() {
		t.Error("Report.Index is not the raw index minus Preprocess.Removed")
	}
}

func TestExtensibilityExtraDimension(t *testing.T) {
	// Register a trivial extra dimension (user-agent similarity) and make
	// sure the pipeline carries it through.
	w := testWorld(t)
	report := runDetector(t, w, WithExtraDimension(uaDimension{}))
	if _, ok := report.SecondaryHerds["useragent"]; !ok {
		t.Error("extra dimension not mined")
	}
	if got := report.RawIndex.Fields(); got != trace.FieldAgents {
		t.Errorf("index of a User-Agent dimension keeps fields %03b, want agents", got)
	}

	// The default detector's index keeps no optional field.
	lean := runDetector(t, w).RawIndex
	if lean.Fields() != 0 {
		t.Errorf("default index keeps fields %03b, want none", lean.Fields())
	}
	for key, info := range lean.Servers {
		if info.UserAgents != nil || info.Queries != nil || info.Payloads != nil {
			t.Fatalf("default index keeps an optional map for %s", key)
		}
	}

	// A dimension whose field the index lacks is an error, not an empty graph.
	ua := NewPipeline(WithSeed(7), WithExtraDimension(herd.UserAgentDimension(similarity.Options{})))
	if _, err := ua.Run(context.Background(), lean, w.Trace().ComputeStats()); err == nil {
		t.Error("Run mined a User-Agent dimension on an index without User-Agents")
	}
}

// uaDimension is a toy dimension connecting servers sharing a rare
// User-Agent, used to exercise WithExtraDimension.
type uaDimension struct{}

func (uaDimension) Name() string { return "useragent" }

func (uaDimension) Fields() trace.Fields { return trace.FieldAgents }

func (uaDimension) Build(idx *trace.Index) *similarity.ServerGraph {
	return similarity.BuildUserAgentGraph(idx, similarity.Options{})
}
