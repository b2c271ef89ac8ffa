package herd

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"smash/internal/similarity"
	"smash/internal/trace"
	"smash/internal/whois"
)

// campaignIndex builds an index with a malicious herd (nServers contacted by
// the same nBots bots, all requesting file) plus background benign traffic.
func campaignIndex(nServers, nBots, nBenign int) *trace.Index {
	tr := &trace.Trace{}
	for s := 0; s < nServers; s++ {
		host := fmt.Sprintf("evil%d.com", s)
		ip := fmt.Sprintf("9.9.%d.%d", s/250, s%250)
		for b := 0; b < nBots; b++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: time.Unix(0, 0), Client: fmt.Sprintf("bot%d", b),
				Host: host, ServerIP: ip, Path: "/login.php", Status: 200,
			})
		}
	}
	for s := 0; s < nBenign; s++ {
		host := fmt.Sprintf("benign%d.com", s)
		// Each benign server gets its own disjoint pair of clients.
		for c := 0; c < 2; c++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: time.Unix(0, 0), Client: fmt.Sprintf("user%d-%d", s, c),
				Host: host, ServerIP: fmt.Sprintf("8.8.%d.%d", s/250, s%250),
				Path: fmt.Sprintf("/page%d.html", s), Status: 200,
			})
		}
	}
	return trace.BuildIndex(tr)
}

func TestMineGraphFindsHerd(t *testing.T) {
	idx := campaignIndex(6, 3, 10)
	sg := similarity.BuildClientGraph(idx, similarity.Options{})
	herds := MineGraph(similarity.DimClient, sg, 1)
	if len(herds) != 1 {
		t.Fatalf("got %d herds, want 1: %+v", len(herds), herds)
	}
	h := herds[0]
	if len(h.Servers) != 6 {
		t.Errorf("herd size = %d, want 6: %v", len(h.Servers), h.Servers)
	}
	for _, s := range h.Servers {
		if !h.Contains(s) {
			t.Errorf("Contains(%q) = false for member", s)
		}
	}
	if h.Contains("benign0.com") {
		t.Error("benign server in herd")
	}
	if h.Density <= 0.9 {
		t.Errorf("herd density = %g, want ~1 (identical client sets)", h.Density)
	}
	if h.Dimension != similarity.DimClient {
		t.Errorf("dimension = %q", h.Dimension)
	}
	if h.Key() == "" {
		t.Error("empty key")
	}
}

func TestMineGraphDeterministic(t *testing.T) {
	idx := campaignIndex(5, 3, 20)
	sg := similarity.BuildClientGraph(idx, similarity.Options{})
	a := MineGraph(similarity.DimClient, sg, 42)
	b := MineGraph(similarity.DimClient, sg, 42)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic herd count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Servers) != len(b[i].Servers) {
			t.Fatalf("herd %d size differs", i)
		}
		for j := range a[i].Servers {
			if a[i].Servers[j] != b[i].Servers[j] {
				t.Fatalf("herd %d member %d differs", i, j)
			}
		}
	}
}

func TestNewMinerValidation(t *testing.T) {
	if _, err := NewMiner(nil, nil, 1); err == nil {
		t.Error("nil main dimension accepted")
	}
	main := ClientDimension(similarity.Options{})
	dup := ClientDimension(similarity.Options{})
	if _, err := NewMiner(main, []Dimension{dup}, 1); err == nil {
		t.Error("duplicate dimension accepted")
	}
}

func TestMinerMine(t *testing.T) {
	idx := campaignIndex(5, 3, 8)
	reg := whois.NewMapRegistry()
	for s := 0; s < 5; s++ {
		reg.Add(whois.Record{
			Domain: fmt.Sprintf("evil%d.com", s),
			Phone:  "+7-666", Address: "1 Evil St",
		})
	}
	main := ClientDimension(similarity.Options{})
	secondary := []Dimension{
		FileDimension(similarity.Options{}),
		IPDimension(similarity.Options{}),
		WhoisDimension(reg, similarity.Options{}),
	}
	m, err := NewMiner(main, secondary, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Mine(idx)
	if res.MainDimension != similarity.DimClient {
		t.Errorf("MainDimension = %q", res.MainDimension)
	}
	if len(res.Main) == 0 {
		t.Fatal("no main herds")
	}
	if len(res.Secondary[similarity.DimFile]) == 0 {
		t.Error("no file herds (5 servers share login.php)")
	}
	if len(res.Secondary[similarity.DimWhois]) == 0 {
		t.Error("no whois herds (5 servers share registration)")
	}
	if res.Graphs != nil {
		t.Errorf("graphs = %d, want none: MineContext releases each graph once mined", len(res.Graphs))
	}
	names := m.SecondaryNames()
	if len(names) != 3 || names[0] != similarity.DimFile {
		t.Errorf("SecondaryNames = %v", names)
	}

	// Correlation counts intersections from each server's one herd per
	// dimension: both partitions must give disjoint herds.
	for _, mine := range []struct {
		name string
		fn   MineFunc
	}{{"MineGraph", MineGraph}, {"MineComponents", MineComponents}} {
		m.SetMineFunc(mine.fn)
		res := m.Mine(idx)
		dims := map[string][]ASH{res.MainDimension: res.Main}
		maps.Copy(dims, res.Secondary)
		for dim, herds := range dims {
			owner := make(map[string]int)
			for _, h := range herds {
				for _, s := range h.Servers {
					if prev, ok := owner[s]; ok {
						t.Errorf("%s: %s is in %s herds %d and %d", mine.name, s, dim, prev, h.ID)
					}
					owner[s] = h.ID
				}
			}
		}
	}
}

func TestMineGraphEmptyIndex(t *testing.T) {
	idx := trace.NewIndex()
	sg := similarity.BuildClientGraph(idx, similarity.Options{})
	if herds := MineGraph(similarity.DimClient, sg, 1); len(herds) != 0 {
		t.Errorf("empty index produced %d herds", len(herds))
	}
}

func TestMineComponentsBaseline(t *testing.T) {
	idx := campaignIndex(6, 3, 10)
	sg := similarity.BuildClientGraph(idx, similarity.Options{})
	herds := MineComponents(similarity.DimClient, sg, 0)
	if len(herds) == 0 {
		t.Fatal("no component herds")
	}
	found := false
	for _, h := range herds {
		if h.Contains("evil0.com") && h.Contains("evil5.com") {
			found = true
		}
	}
	if !found {
		t.Error("campaign not in one component")
	}
}

func TestSetMineFunc(t *testing.T) {
	idx := campaignIndex(4, 3, 5)
	m, err := NewMiner(ClientDimension(similarity.Options{}), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetMineFunc(MineComponents)
	m.SetMineFunc(nil) // nil must be ignored, not panic later
	res := m.Mine(idx)
	if len(res.Main) == 0 {
		t.Error("no herds after strategy swap")
	}
}

func TestSingleClientASHes(t *testing.T) {
	tr := &trace.Trace{}
	add := func(client, host string) {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: time.Unix(0, 0), Client: client, Host: host, Status: 200,
		})
	}
	// lone1 exclusively visits three servers; lone2 only one; shared.com
	// has two clients and must be excluded.
	add("lone1", "a.com")
	add("lone1", "b.com")
	add("lone1", "c.com")
	add("lone2", "d.com")
	add("lone1", "shared.com")
	add("other", "shared.com")
	idx := trace.BuildIndex(tr)
	herds := SingleClientASHes(similarity.DimClient, idx, 10)
	if len(herds) != 1 {
		t.Fatalf("herds = %+v, want exactly one (lone1's)", herds)
	}
	h := herds[0]
	if h.SingleClient != "lone1" || h.ID != 10 || h.Density != 1 {
		t.Errorf("herd meta = %+v", h)
	}
	if len(h.Servers) != 3 || h.Contains("shared.com") || h.Contains("d.com") {
		t.Errorf("herd servers = %v", h.Servers)
	}
}

// TestMineConcurrencyDeterminism: concurrent dimension mining must produce
// byte-identical results across runs (run with -race to also check for
// data races between the dimension builders).
func TestMineConcurrencyDeterminism(t *testing.T) {
	idx := campaignIndex(6, 3, 30)
	reg := whois.NewMapRegistry()
	for s := 0; s < 6; s++ {
		reg.Add(whois.Record{Domain: fmt.Sprintf("evil%d.com", s), Phone: "+7", Address: "X"})
	}
	mk := func() *Result {
		m, err := NewMiner(ClientDimension(similarity.Options{}), []Dimension{
			FileDimension(similarity.Options{}),
			IPDimension(similarity.Options{}),
			WhoisDimension(reg, similarity.Options{}),
		}, 9)
		if err != nil {
			t.Fatal(err)
		}
		return m.Mine(idx)
	}
	a, b := mk(), mk()
	if len(a.Main) != len(b.Main) {
		t.Fatalf("main herd counts differ: %d vs %d", len(a.Main), len(b.Main))
	}
	for dim := range a.Secondary {
		if len(a.Secondary[dim]) != len(b.Secondary[dim]) {
			t.Fatalf("dimension %s herd counts differ", dim)
		}
		for i := range a.Secondary[dim] {
			ha, hb := a.Secondary[dim][i], b.Secondary[dim][i]
			if ha.Key() != hb.Key() || len(ha.Servers) != len(hb.Servers) {
				t.Fatalf("dimension %s herd %d differs", dim, i)
			}
		}
	}
}
