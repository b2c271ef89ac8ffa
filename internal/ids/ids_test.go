package ids

import (
	"testing"
	"time"

	"smash/internal/trace"
)

func testIndex() *trace.Index {
	tr := &trace.Trace{Requests: []trace.Request{
		{Time: time.Unix(0, 0), Client: "bot1", Host: "cc.evil.com", ServerIP: "9.9.9.9",
			Path: "/images/news.php", UserAgent: "Internet Exploder", Status: 200},
		{Time: time.Unix(0, 0), Client: "bot1", Host: "dl.evil2.com", ServerIP: "9.9.9.8",
			Path: "/images/file.txt", UserAgent: "Mozilla/4.0", Status: 200},
		{Time: time.Unix(0, 0), Client: "user", Host: "benign.com", ServerIP: "8.8.8.8",
			Path: "/news.php", UserAgent: "Mozilla/5.0", Status: 200},
	}}
	return trace.BuildIndexOf(tr, trace.FieldAgents)
}

func TestEngineServerSignature(t *testing.T) {
	e := NewEngine("IDS2012", []Signature{
		{ThreatID: "Bagle", Server: "evil.com", URIFile: "news.php"},
	})
	labels := e.Scan(testIndex())
	if !labels.Detected("evil.com") {
		t.Error("Bagle C&C not detected")
	}
	if labels.Detected("benign.com") {
		t.Error("benign.com matched a server-bound signature")
	}
	if labels.Detected("evil2.com") {
		t.Error("evil2.com matched wrong signature")
	}
	if e.Name() != "IDS2012" || e.RuleCount() != 1 {
		t.Errorf("engine meta wrong: %s %d", e.Name(), e.RuleCount())
	}
}

func TestEngineGenericSignature(t *testing.T) {
	// A generic signature (no server) fires on every server exhibiting the
	// URI file + UA combination.
	e := NewEngine("IDS", []Signature{
		{ThreatID: "Bagle-generic", URIFile: "news.php", UserAgent: "Internet Exploder"},
	})
	labels := e.Scan(testIndex())
	if !labels.Detected("evil.com") {
		t.Error("generic signature missed evil.com")
	}
	if labels.Detected("benign.com") {
		t.Error("generic signature false-fired on benign.com (UA differs)")
	}
}

func TestEmptySignatureNeverFires(t *testing.T) {
	e := NewEngine("IDS", []Signature{{ThreatID: "broken"}})
	if labels := e.Scan(testIndex()); len(labels) != 0 {
		t.Errorf("empty signature fired: %v", labels)
	}
}

func TestLabelsHelpers(t *testing.T) {
	e := NewEngine("IDS", []Signature{
		{ThreatID: "T1", Server: "evil.com", URIFile: "news.php"},
		{ThreatID: "T1", Server: "evil2.com", URIFile: "file.txt"},
		{ThreatID: "T2", Server: "evil.com", URIFile: "news.php"},
	})
	labels := e.Scan(testIndex())
	servers := labels.Servers()
	if len(servers) != 2 || servers[0] != "evil.com" {
		t.Errorf("Servers = %v", servers)
	}
	groups := labels.ThreatGroups()
	if len(groups["T1"]) != 2 {
		t.Errorf("T1 group = %v", groups["T1"])
	}
	if len(groups["T2"]) != 1 || groups["T2"][0] != "evil.com" {
		t.Errorf("T2 group = %v", groups["T2"])
	}
}

func TestDuplicateThreatDeduped(t *testing.T) {
	e := NewEngine("IDS", []Signature{
		{ThreatID: "T", Server: "evil.com", URIFile: "news.php"},
		{ThreatID: "T", Server: "evil.com", UserAgent: "Internet Exploder"},
	})
	labels := e.Scan(testIndex())
	if got := labels["evil.com"]; len(got) != 1 {
		t.Errorf("labels = %v, want single T", got)
	}
}

func TestBlacklist(t *testing.T) {
	b := NewBlacklist("MDL", []string{"evil.com", "bad.net"})
	if !b.Contains("evil.com") || b.Contains("good.com") {
		t.Error("blacklist membership wrong")
	}
}

func TestBlacklistSetPolicy(t *testing.T) {
	bs := NewBlacklistSet()
	bs.Direct = append(bs.Direct,
		NewBlacklist("MDL", []string{"direct.com"}),
		NewBlacklist("Phishtank", []string{"phish.com"}))
	bs.AggregatedHits["agg1.com"] = 1
	bs.AggregatedHits["agg2.com"] = 2
	if !bs.Confirmed("direct.com") {
		t.Error("direct listing not confirmed")
	}
	if !bs.Confirmed("phish.com") {
		t.Error("second direct list not confirmed")
	}
	if bs.Confirmed("agg1.com") {
		t.Error("single aggregator hit confirmed (needs >= 2)")
	}
	if !bs.Confirmed("agg2.com") {
		t.Error("double aggregator hit not confirmed")
	}
	if bs.Confirmed("unknown.com") {
		t.Error("unknown server confirmed")
	}
	src := bs.Sources("direct.com")
	if len(src) != 1 || src[0] != "MDL" {
		t.Errorf("Sources = %v", src)
	}
}

func TestBlacklistSetDefaultMin(t *testing.T) {
	bs := &BlacklistSet{AggregatedHits: map[string]int{"x.com": 2}}
	if !bs.Confirmed("x.com") {
		t.Error("zero MinAggregatedHits should default to 2")
	}
}
