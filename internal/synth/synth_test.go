package synth

import (
	"strings"
	"testing"

	"smash/internal/trace"
)

// smallConfig keeps generation fast for unit tests.
func smallConfig() Config {
	return Config{
		Name: "test", Seed: 42, Days: 1,
		Clients: 300, BenignServers: 800, MeanRequests: 15,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Trace().Requests) != len(w2.Trace().Requests) {
		t.Fatalf("request counts differ: %d vs %d",
			len(w1.Trace().Requests), len(w2.Trace().Requests))
	}
	for i := range w1.Trace().Requests {
		if w1.Trace().Requests[i] != w2.Trace().Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 43
	w1, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	n := len(w1.Trace().Requests)
	if len(w2.Trace().Requests) < n {
		n = len(w2.Trace().Requests)
	}
	for i := 0; i < n; i++ {
		if w1.Trace().Requests[i] == w2.Trace().Requests[i] {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical traces")
	}
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty campaign name", func(c *Config) {
			c.Campaigns = []CampaignSpec{{Kind: KindDGA, Servers: 2, Bots: 1}}
		}},
		{"duplicate campaign", func(c *Config) {
			c.Campaigns = []CampaignSpec{
				{Name: "x", Kind: KindDGA, Servers: 2, Bots: 1},
				{Name: "x", Kind: KindDGA, Servers: 2, Bots: 1},
			}
		}},
		{"no servers", func(c *Config) {
			c.Campaigns = []CampaignSpec{{Name: "x", Kind: KindDGA, Bots: 1}}
		}},
		{"no bots", func(c *Config) {
			c.Campaigns = []CampaignSpec{{Name: "x", Kind: KindDGA, Servers: 2}}
		}},
		{"too many bots", func(c *Config) {
			c.Campaigns = []CampaignSpec{{Name: "x", Kind: KindDGA, Servers: 2, Bots: 400}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mut(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGroundTruthPopulated(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Truth.Campaigns) != len(DefaultCampaigns()) {
		t.Errorf("campaign truths = %d, want %d", len(w.Truth.Campaigns), len(DefaultCampaigns()))
	}
	for name, ct := range w.Truth.Campaigns {
		if ct.Spec.StartDay > 0 {
			continue // not active on a 1-day world
		}
		if len(ct.Servers) == 0 {
			t.Errorf("campaign %s has no servers", name)
		}
		if len(ct.Bots) != ct.Spec.Bots {
			t.Errorf("campaign %s bots = %d, want %d", name, len(ct.Bots), ct.Spec.Bots)
		}
		for _, s := range ct.Servers {
			st, ok := w.Truth.Servers[s]
			if !ok {
				t.Errorf("campaign %s server %s missing from server truth", name, s)
				continue
			}
			if st.Campaign != name {
				t.Errorf("server %s attributed to %q, want %q", s, st.Campaign, name)
			}
		}
	}
	if len(w.Truth.MaliciousServers()) < 100 {
		t.Errorf("only %d malicious servers in truth", len(w.Truth.MaliciousServers()))
	}
}

func TestCampaignTrafficPresent(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx := trace.BuildIndex(w.Trace())
	zeus := w.Truth.Campaigns["zeus"]
	if len(zeus.Servers) != 8 {
		t.Fatalf("zeus servers = %d, want 8", len(zeus.Servers))
	}
	for _, s := range zeus.Servers {
		info := idx.Servers[s]
		if info == nil {
			t.Fatalf("zeus server %s has no traffic", s)
		}
		if !info.HasFile("login.php") {
			t.Errorf("zeus server %s lacks login.php: %v", s, info.FileList())
		}
		if !strings.HasSuffix(s, ".cz.cc") {
			t.Errorf("zeus server %s not on cz.cc", s)
		}
		if len(info.Clients) != 2 {
			t.Errorf("zeus server %s clients = %d, want 2 bots", s, len(info.Clients))
		}
	}
	// All zeus domains share one IP (domain flux).
	ips := make(map[string]bool)
	ipNames := idx.Syms.IPs.Names()
	for _, s := range zeus.Servers {
		for ip := range idx.Servers[s].IPs {
			ips[ipNames[ip]] = true
		}
	}
	if len(ips) != 1 {
		t.Errorf("zeus IPs = %v, want exactly 1 shared", ips)
	}
}

func TestWhoisSharedFields(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	flux := w.Truth.Campaigns["fluxnet"]
	r0, ok0 := w.Whois.Lookup(flux.Servers[0])
	r1, ok1 := w.Whois.Lookup(flux.Servers[1])
	if !ok0 || !ok1 {
		t.Fatal("fluxnet domains missing whois records")
	}
	if r0.Phone != r1.Phone || r0.Address != r1.Address {
		t.Errorf("shared-whois campaign has disjoint records: %+v vs %+v", r0, r1)
	}
}

func TestVictimsAreBenignServers(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	scan := w.Truth.Campaigns["zmeu-scan"]
	for _, s := range scan.Servers {
		if !strings.HasPrefix(s, "site") {
			t.Errorf("scan victim %s is not a benign population server", s)
		}
		if w.Truth.Servers[s].Category != CatScanVictim {
			t.Errorf("victim %s category = %s", s, w.Truth.Servers[s].Category)
		}
	}
}

func TestObfuscatedCampaignFiles(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx := trace.BuildIndex(w.Trace())
	conf := w.Truth.Campaigns["conficker"]
	long := 0
	for _, s := range conf.Servers {
		for _, f := range idx.Servers[s].FileList() {
			if len(f) > 25 {
				long++
			}
		}
	}
	if long < len(conf.Servers) {
		t.Errorf("obfuscated campaign produced only %d long filenames over %d servers",
			long, len(conf.Servers))
	}
}

func TestMultiDayWorld(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 3
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Days) != 3 {
		t.Fatalf("days = %d, want 3", len(w.Days))
	}
	// Agile campaign rotates servers daily.
	flux := w.Truth.Campaigns["fluxnet"]
	d0 := map[string]bool{}
	for _, s := range flux.ServersByDay[0] {
		d0[s] = true
	}
	overlap := 0
	for _, s := range flux.ServersByDay[1] {
		if d0[s] {
			overlap++
		}
	}
	if overlap != 0 {
		t.Errorf("agile campaign reused %d servers across days", overlap)
	}
	// Persistent campaign keeps its servers.
	sality := w.Truth.Campaigns["sality"]
	if len(sality.ServersByDay[0]) != len(sality.ServersByDay[1]) {
		t.Error("persistent campaign changed size across days")
	}
	// Late riser starts on day 2 (index 2).
	late := w.Truth.Campaigns["late-riser"]
	if len(late.ServersByDay[0]) != 0 || len(late.ServersByDay[1]) != 0 {
		t.Error("late-riser active before StartDay")
	}
	if len(late.ServersByDay[2]) == 0 {
		t.Error("late-riser inactive on StartDay")
	}
}

func TestNoiseGeneration(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	noise := 0
	for _, st := range w.Truth.Servers {
		if st.Noise {
			noise++
		}
	}
	if noise < 30 {
		t.Errorf("noise servers = %d, want >= 30 (torrent + teamviewer)", noise)
	}
	cfg := smallConfig()
	cfg.DisableNoise = true
	w2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, st := range w2.Truth.Servers {
		if st.Noise {
			t.Errorf("noise server %s generated despite DisableNoise", s)
		}
	}
}

func TestBuildOracles(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := BuildOracles(w)
	if o.IDS2012.RuleCount() == 0 || o.IDS2013.RuleCount() == 0 {
		t.Fatal("empty signature sets")
	}
	if o.IDS2013.RuleCount() < o.IDS2012.RuleCount() {
		t.Errorf("IDS2013 (%d rules) smaller than IDS2012 (%d)",
			o.IDS2013.RuleCount(), o.IDS2012.RuleCount())
	}
	idx := trace.BuildIndex(w.Trace())
	l2012 := o.IDS2012.Scan(idx)
	l2013 := o.IDS2013.Scan(idx)
	// Superset property: everything 2012 labels, 2013 labels too.
	for s := range l2012 {
		if !l2013.Detected(s) {
			t.Errorf("server %s labelled by 2012 but not 2013", s)
		}
	}
	// Zeus is the zero-day: no 2012 labels, full 2013 labels.
	zeus := w.Truth.Campaigns["zeus"]
	for _, s := range zeus.Servers {
		if l2012.Detected(s) {
			t.Errorf("zeus server %s labelled by 2012 signatures", s)
		}
		if !l2013.Detected(s) {
			t.Errorf("zeus server %s missed by 2013 signatures", s)
		}
	}
	// Sality: fully covered by 2012 (the paper's Table VIII).
	sality := w.Truth.Campaigns["sality"]
	for _, s := range sality.Servers {
		if !l2012.Detected(s) {
			t.Errorf("sality server %s missed by 2012 signatures", s)
		}
	}
	// Blacklist policy sanity: at least some servers confirmed.
	confirmed := 0
	for _, s := range w.Truth.MaliciousServers() {
		if o.Blacklists.Confirmed(s) {
			confirmed++
		}
	}
	if confirmed == 0 {
		t.Error("no malicious server blacklist-confirmed")
	}
	if o.String() == "" {
		t.Error("empty oracle summary")
	}
}

func TestDayProfiles(t *testing.T) {
	for _, name := range []string{"Data2011day", "Data2012day", "Data2012week", "custom"} {
		cfg := DayProfile(name, 7)
		if cfg.Name != name {
			t.Errorf("profile name = %q, want %q", cfg.Name, name)
		}
	}
	if DayProfile("Data2012week", 7).Days != 7 {
		t.Error("week profile should have 7 days")
	}
}

func TestCampaignOfThreat(t *testing.T) {
	if got := CampaignOfThreat(threatID("zeus")); got != "zeus" {
		t.Errorf("round trip = %q", got)
	}
	if got := CampaignOfThreat("bare"); got != "bare" {
		t.Errorf("bare = %q", got)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindDomainFlux, KindDGA, KindTwoTier, KindSality,
		KindScanner, KindIframe, KindPhishing, KindDropZone, Kind(0)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}

func TestTraceStatsReasonable(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := w.Trace().ComputeStats()
	if s.Clients < 250 {
		t.Errorf("clients = %d, want ~300", s.Clients)
	}
	if s.Servers < 500 {
		t.Errorf("servers = %d", s.Servers)
	}
	if s.Requests < 3000 {
		t.Errorf("requests = %d", s.Requests)
	}
}
