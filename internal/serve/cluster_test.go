package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"smash/internal/campaign"
	"smash/internal/cluster"
	"smash/internal/core"
	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/wire"
)

// memStore returns a fresh memory-only store.
func memStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// postFragment POSTs one encoded fragment to the handler.
func postFragment(t *testing.T, h http.Handler, frag *wire.Fragment) *httptest.ResponseRecorder {
	t.Helper()
	return postFragmentBytes(h, wire.EncodeFragment(frag))
}

func postFragmentBytes(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", cluster.ContentType)
	h.ServeHTTP(rec, req)
	return rec
}

func windowFragment(node string, window int64, client string) *wire.Fragment {
	idx := trace.NewIndex()
	r := trace.Request{
		Time:   cluster.WindowStart(window, 24*time.Hour).Add(time.Hour),
		Client: client, Host: "pool.example.com", ServerIP: "10.9.9.9",
		Path: "/x", Status: 200,
	}
	idx.Add(&r)
	start := cluster.WindowStart(window, 24*time.Hour)
	return &wire.Fragment{
		Node: node, Window: window,
		Start: start, End: start.Add(24 * time.Hour), Index: idx,
	}
}

// /v1/ingest decodes fragments into the aggregator, rejects garbage, and
// reports cluster counts on /v1/stats and per-node rows on /v1/cluster —
// each count in one place.
func TestIngestEndpoint(t *testing.T) {
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Window: 24 * time.Hour, Expect: 1,
		Detector: []core.Option{core.WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := memStore(t)
	h := NewHandler(Config{Store: st, Aggregator: agg})

	results := agg.Start(context.Background())
	drained := make(chan int)
	go func() {
		n := 0
		for range results {
			n++
		}
		drained <- n
	}()

	if rec := postFragment(t, h, windowFragment("n0", 3, "c1")); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}

	// Garbage body and wrong method are rejected.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest", strings.NewReader("not a fragment")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage fragment status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ingest", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/ingest status = %d", rec.Code)
	}

	if rec := postFragment(t, h, &wire.Fragment{Node: "n0", Window: 3, Final: true}); rec.Code != http.StatusAccepted {
		t.Fatalf("final marker status = %d", rec.Code)
	}
	if n := <-drained; n != 1 {
		t.Fatalf("aggregator emitted %d windows, want 1", n)
	}

	var stats map[string]json.RawMessage
	if err := json.Unmarshal(get(t, h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	var cs cluster.Stats
	if err := json.Unmarshal(stats["cluster"], &cs); err != nil || cs.Fragments != 1 || cs.Windows != 1 ||
		cs.FinishedNodes != 1 || cs.LateFragments != 0 {
		t.Errorf("cluster stats = %s (%v)", stats["cluster"], err)
	}
	if _, ok := stats["nodes"]; ok {
		t.Errorf("/v1/stats still serves per-node rows: %s", stats["nodes"])
	}

	var tree struct {
		Children []cluster.TreeNode `json:"children"`
		Cluster  json.RawMessage    `json:"cluster"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/cluster").Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	if c := tree.Children; len(c) != 1 || c[0].Node != "n0" || c[0].Fragments != 1 || c[0].Requests != 1 || !c[0].Finished {
		t.Errorf("/v1/cluster children = %+v, want finished n0 with 1 fragment, 1 request", c)
	}
	if tree.Cluster != nil {
		t.Errorf("/v1/cluster repeats /v1/stats' cluster counts: %s", tree.Cluster)
	}
}

// /v1/cluster's finished and finalOverdue flags partition the nodes: a
// node still streaming after a peer finished is overdue only, not also
// active.
func TestClusterNodesStatePartition(t *testing.T) {
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{Window: 24 * time.Hour, Expect: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Config{Store: memStore(t), Aggregator: agg})
	results := agg.Start(context.Background())
	drained := make(chan struct{})
	go func() {
		for range results {
		}
		close(drained)
	}()

	if rec := postFragment(t, h, windowFragment("a", 0, "c1")); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}
	if rec := postFragment(t, h, &wire.Fragment{Node: "b", Window: 0, Final: true}); rec.Code != http.StatusAccepted {
		t.Fatalf("final marker status = %d", rec.Code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := agg.Stats(); st.Nodes < 2 || st.FinishedNodes < 1; st = agg.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("aggregator never saw both nodes: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	var tree struct {
		Children []cluster.TreeNode `json:"children"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/cluster").Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	var active, finished, overdue []string
	for _, n := range tree.Children {
		switch {
		case n.Finished && n.FinalOverdue:
			t.Errorf("node %s is both finished and overdue", n.Node)
		case n.Finished:
			finished = append(finished, n.Node)
		case n.FinalOverdue:
			overdue = append(overdue, n.Node)
		default:
			active = append(active, n.Node)
		}
	}
	if len(active) != 0 || fmt.Sprint(finished) != "[b]" || fmt.Sprint(overdue) != "[a]" {
		t.Errorf("active %v, finished %v, overdue %v; want none, [b], [a]", active, finished, overdue)
	}

	if rec := postFragment(t, h, &wire.Fragment{Node: "a", Window: 0, Final: true}); rec.Code != http.StatusAccepted {
		t.Fatalf("final marker status = %d", rec.Code)
	}
	<-drained
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}
}

// Without an aggregator the ingest route does not exist.
func TestIngestDisabledWithoutAggregator(t *testing.T) {
	h := NewHandler(Config{Store: memStore(t)})
	if rec := postFragment(t, h, windowFragment("n0", 0, "c1")); rec.Code != http.StatusNotFound {
		t.Errorf("ingest without aggregator status = %d", rec.Code)
	}
}

// populate feeds n synthetic lineages through the store.
func populate(t *testing.T, st *store.Store, n int) {
	t.Helper()
	for _, w := range manyLineageWindows(t, n) {
		if err := st.Consume(&w); err != nil {
			t.Fatal(err)
		}
	}
}

// /v1/lineages pagination: deterministic ID order, limit/offset windows,
// stable totals, input validation.
func TestLineagesPagination(t *testing.T) {
	st := memStore(t)
	populate(t, st, 5)
	h := NewHandler(Config{Store: st})

	type resp struct {
		Count    int `json:"count"`
		Total    int `json:"total"`
		Offset   int `json:"offset"`
		Lineages []struct {
			ID int `json:"id"`
		} `json:"lineages"`
	}
	page := func(path string) resp {
		t.Helper()
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d: %s", path, rec.Code, rec.Body)
		}
		var out resp
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	full := page("/v1/lineages")
	if full.Count != 5 || full.Total != 5 {
		t.Fatalf("unpaginated = %+v", full)
	}
	for i, l := range full.Lineages {
		if l.ID != i {
			t.Fatalf("lineages not in ID order: %+v", full.Lineages)
		}
	}

	p := page("/v1/lineages?limit=2&offset=1")
	if p.Count != 2 || p.Total != 5 || p.Offset != 1 ||
		len(p.Lineages) != 2 || p.Lineages[0].ID != 1 || p.Lineages[1].ID != 2 {
		t.Errorf("page limit=2 offset=1 = %+v", p)
	}
	if p := page("/v1/lineages?limit=0"); p.Count != 0 || p.Total != 5 {
		t.Errorf("limit=0 = %+v", p)
	}
	if p := page("/v1/lineages?offset=99"); p.Count != 0 || p.Total != 5 {
		t.Errorf("offset past end = %+v", p)
	}
	if p := page("/v1/lineages?limit=99"); p.Count != 5 {
		t.Errorf("oversized limit = %+v", p)
	}

	for _, bad := range []string{"limit=-1", "limit=x", "offset=-2", "offset=1.5"} {
		if rec := get(t, h, "/v1/lineages?"+bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, rec.Code)
		}
	}
}

// manyLineageWindows fabricates windows whose campaigns share no members,
// so each becomes its own lineage.
func manyLineageWindows(t *testing.T, n int) []stream.WindowResult {
	t.Helper()
	base := time.Date(2020, 9, 13, 0, 0, 0, 0, time.UTC)
	var out []stream.WindowResult
	for i := 0; i < n; i++ {
		report := &core.Report{Campaigns: []campaign.Campaign{{
			ID:      0,
			Servers: []string{fmt.Sprintf("evil-%d-a.test", i), fmt.Sprintf("evil-%d-b.test", i)},
			Clients: []string{fmt.Sprintf("c%d-1", i), fmt.Sprintf("c%d-2", i)},
			Kind:    campaign.KindCommunication,
		}}}
		out = append(out, stream.WindowResult{
			Seq:      i,
			Start:    base.AddDate(0, 0, i),
			End:      base.AddDate(0, 0, i+1),
			Requests: 10,
			Report:   report,
		})
	}
	return out
}

// Satellite regression: query handlers racing engine shutdown. /v1/stats
// reads the engine's live atomic counters and /v1/lineages the store
// mirror while Stop drains in-flight windows — go test -race is the
// assertion.
func TestHandlersRaceEngineShutdown(t *testing.T) {
	st := memStore(t)
	world := clusterWorldRequests(t)
	eng, err := stream.New(stream.Config{
		Name:   "racetest",
		Window: 24 * time.Hour,
		Sinks:  []stream.Sink{st},
		Detector: []core.Option{
			core.WithSeed(1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Config{Store: st, EngineStats: eng.Stats})

	results := eng.Start(&stream.SliceSource{Requests: world})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					get(t, h, "/v1/stats")
					get(t, h, "/v1/lineages")
					get(t, h, "/metrics")
				}
			}
		}()
	}
	// Stop mid-stream while handlers hammer the read paths, then drain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Stop()
	}()
	for range results {
	}
	close(stop)
	wg.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	// The store must still serve a coherent view after shutdown.
	rec := get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Errorf("stats after shutdown = %d", rec.Code)
	}
}

// clusterWorldRequests flattens the shared fixture trace into a request
// slice large enough that Stop lands mid-stream.
func clusterWorldRequests(t *testing.T) []trace.Request {
	t.Helper()
	base := time.Date(2020, 9, 13, 0, 0, 0, 0, time.UTC)
	var reqs []trace.Request
	for day := 0; day < 3; day++ {
		for i := 0; i < 400; i++ {
			reqs = append(reqs, trace.Request{
				Time:   base.AddDate(0, 0, day).Add(time.Duration(i) * time.Minute),
				Client: fmt.Sprintf("c%d", i%40),
				Host:   fmt.Sprintf("site-%d.test", i%60),
				Path:   fmt.Sprintf("/f%d", i%5),
				Status: 200,
			})
		}
	}
	return reqs
}

// GET /v1/cluster reconstructs the tree below an aggregator from hop
// provenance: a fragment relayed shard0 -> merge0 -> here must show
// merge0 as a direct child with shard0 beneath it, each with its role.
func TestClusterTreeEndpoint(t *testing.T) {
	st := memStore(t)
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Window: 24 * time.Hour, Expect: 1,
		Detector: []core.Option{core.WithSeed(1)},
		Sinks:    []stream.Sink{st},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Config{Store: st, Aggregator: agg, Node: "root", Role: "aggregate"})

	results := agg.Start(context.Background())
	drained := make(chan struct{})
	go func() {
		for range results {
		}
		close(drained)
	}()
	now := time.Now().UTC()
	frag := windowFragment("merge0", 3, "c1")
	frag.Hops = []wire.Hop{
		{Node: "shard0", Role: "ingest", Send: now.Add(-2 * time.Second), Recv: now.Add(-1 * time.Second), Attempts: 1},
		{Node: "merge0", Role: "merge", Send: now, Attempts: 1},
	}
	if rec := postFragment(t, h, frag); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body)
	}
	if rec := postFragment(t, h, &wire.Fragment{Node: "merge0", Window: 3, Final: true}); rec.Code != http.StatusAccepted {
		t.Fatalf("final marker status = %d", rec.Code)
	}
	<-drained

	rec := get(t, h, "/v1/cluster")
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster status = %d: %s", rec.Code, rec.Body)
	}
	var view struct {
		Node     string             `json:"node"`
		Role     string             `json:"role"`
		Children []cluster.TreeNode `json:"children"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Node != "root" || view.Role != "aggregate" {
		t.Errorf("self = %s/%s, want root/aggregate", view.Node, view.Role)
	}
	var stats struct {
		Cluster *cluster.Stats `json:"cluster"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cluster == nil || stats.Cluster.Fragments != 1 {
		t.Errorf("cluster stats = %+v, want 1 fragment", stats.Cluster)
	}
	if len(view.Children) != 1 {
		t.Fatalf("children = %+v, want exactly merge0", view.Children)
	}
	child := view.Children[0]
	if child.Node != "merge0" || child.Role != "merge" {
		t.Errorf("child = %s/%s, want merge0/merge", child.Node, child.Role)
	}
	if child.LastWindow != 3 {
		t.Errorf("child lastWindow = %d, want 3", child.LastWindow)
	}
	if child.ClockSkewSeconds == nil {
		t.Error("child clock skew missing (Submit stamps Recv on the last hop)")
	}
	if !child.Finished {
		t.Error("child not marked finished after its final marker")
	}
	if len(child.Children) != 1 || child.Children[0].Node != "shard0" {
		t.Fatalf("grandchildren = %+v, want exactly shard0", child.Children)
	}
	gc := child.Children[0]
	if gc.Role != "ingest" {
		t.Errorf("grandchild role = %q, want ingest", gc.Role)
	}
	if gc.ClockSkewSeconds == nil || *gc.ClockSkewSeconds != 1 {
		t.Errorf("grandchild skew = %v, want 1s (stamped into the hop)", gc.ClockSkewSeconds)
	}

	// A standalone handler still answers: a leaf with no children.
	bare := NewHandler(Config{Store: memStore(t)})
	rec = get(t, bare, "/v1/cluster")
	if rec.Code != http.StatusOK {
		t.Fatalf("standalone cluster status = %d", rec.Code)
	}
	var leaf struct {
		Role     string             `json:"role"`
		Children []cluster.TreeNode `json:"children"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &leaf); err != nil {
		t.Fatal(err)
	}
	if leaf.Role != "standalone" || len(leaf.Children) != 0 {
		t.Errorf("standalone view = %+v, want role standalone and no children", leaf)
	}
}

// A child started with another -window or -stride derives its window ids
// on a different grid. Both fragment-accepting roles must refuse such a
// fragment permanently (400: the forwarder neither retries nor spools it)
// before it reaches the fragment log or any counter, instead of merging an
// hour-id into a day-id slot.
func TestIngestRejectsMisconfiguredChild(t *testing.T) {
	const window = 24 * time.Hour
	aggDir, mergeDir := t.TempDir(), t.TempDir()
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Window: window, Expect: 1, FragDir: aggDir,
		Detector: []core.Option{core.WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	merger, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Window: window, Expect: 1, FragDir: mergeDir, IndexOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// hourly is what a `-window 1h` child sends; shifted has the right
	// length but sits off this tier's stride grid.
	hourStart := cluster.WindowStart(3, window).Add(5 * time.Hour)
	hourly := windowFragment("n0", cluster.WindowID(hourStart, time.Hour), "c1")
	hourly.Start, hourly.End = hourStart, hourStart.Add(time.Hour)
	shifted := windowFragment("n0", 3, "c1")
	shifted.Start, shifted.End = shifted.Start.Add(time.Hour), shifted.End.Add(time.Hour)
	// zeroed is a well-placed fragment whose index header claims no
	// requests (byte 5 of the index encoding) over its one-request server:
	// merged as-is it would skip detection and be counted an empty window.
	zeroed := wire.EncodeFragment(windowFragment("n0", 3, "c1"))
	zeroed[bytes.LastIndex(zeroed, []byte("SMWF"))+5] = 0

	for _, role := range []struct {
		name string
		sink *cluster.Aggregator
		dir  string
	}{{"aggregate", agg, aggDir}, {"merge", merger, mergeDir}} {
		t.Run(role.name, func(t *testing.T) {
			h := NewHandler(Config{Store: memStore(t), Aggregator: role.sink, Role: role.name})
			logged := func() int {
				entries, err := os.ReadDir(role.dir)
				if err != nil {
					t.Fatal(err)
				}
				return len(entries)
			}
			before, beforeLogged := role.sink.Stats(), logged()
			for name, frag := range map[string]*wire.Fragment{"hourly": hourly, "shifted": shifted} {
				if rec := postFragment(t, h, frag); rec.Code != http.StatusBadRequest {
					t.Errorf("%s fragment: status = %d, want 400: %s", name, rec.Code, rec.Body)
				}
			}
			if rec := postFragmentBytes(h, zeroed); rec.Code != http.StatusBadRequest {
				t.Errorf("zeroed-total fragment: status = %d, want 400: %s", rec.Code, rec.Body)
			}
			if got := role.sink.Stats(); got != before {
				t.Errorf("counters moved on rejected fragments: %+v -> %+v", before, got)
			}
			if got := logged(); got != beforeLogged {
				t.Errorf("fragment log grew from %d to %d entries on rejected fragments", beforeLogged, got)
			}
			if rec := postFragment(t, h, windowFragment("n0", 3, "c1")); rec.Code != http.StatusAccepted {
				t.Fatalf("well-formed fragment: status = %d: %s", rec.Code, rec.Body)
			}
			if got := logged(); got == beforeLogged {
				t.Error("accepted fragment left no trace in the fragment log: the check above proves nothing")
			}
		})
	}
}
