package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
)

// windowLines extracts the per-window and per-delta output lines, the
// part of smashd's text output that must be identical across a standalone
// and a cluster run.
func windowLines(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "window ") || strings.HasPrefix(line, "  ") {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// The cluster acceptance test at the CLI layer: one aggregator plus two
// self-partitioning ingest nodes (-shard-of) replaying the same trace
// produce exactly the window reports, deltas and lineage summary of a
// standalone run.
func TestRunClusterEquivalence(t *testing.T) {
	_, paths := writeWorld(t, 2)

	var std bytes.Buffer
	if err := run(context.Background(), append([]string{"-window", "24h"}, paths...), nil, &std); err != nil {
		t.Fatal(err)
	}
	wantWindows := windowLines(std.String())
	wantSummary := summaryOf(t, std.String())
	if wantWindows == "" {
		t.Fatal("standalone run produced no window lines")
	}

	addrCh := make(chan string, 1)
	onListen = func(a net.Addr) { addrCh <- a.String() }
	defer func() { onListen = nil }()

	aggErr := make(chan error, 1)
	var aggOut bytes.Buffer
	go func() {
		aggErr <- run(context.Background(), []string{
			"-role", "aggregate", "-cluster-listen", "127.0.0.1:0",
			"-expect", "2", "-window", "24h",
		}, nil, &aggOut)
	}()
	addr := <-addrCh

	// Both nodes read the FULL trace and keep only their client-hash
	// partition; together they cover every request exactly once.
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		args := append([]string{
			"-role", "ingest", "-forward", "http://" + addr,
			"-shard-of", fmt.Sprintf("%d/2", i), "-window", "24h",
		}, paths...)
		if err := run(context.Background(), args, nil, &out); err != nil {
			t.Fatalf("ingest node %d: %v", i, err)
		}
		if !strings.Contains(out.String(), "forwarded") {
			t.Errorf("node %d forwarded nothing:\n%s", i, out.String())
		}
	}
	if err := <-aggErr; err != nil {
		t.Fatalf("aggregator: %v", err)
	}

	if got := windowLines(aggOut.String()); got != wantWindows {
		t.Errorf("cluster window output diverged:\ngot:\n%s\nwant:\n%s", got, wantWindows)
	}
	if got := summaryOf(t, aggOut.String()); got != wantSummary {
		t.Errorf("cluster lineage summary diverged:\ngot:\n%s\nwant:\n%s", got, wantSummary)
	}
	if !strings.Contains(aggOut.String(), "aggregated 4 fragments from 2 nodes") {
		t.Errorf("missing aggregation stats:\n%s", aggOut.String())
	}
}

// The aggregate role emits NDJSON window records like standalone.
func TestRunClusterJSON(t *testing.T) {
	_, paths := writeWorld(t, 1)

	addrCh := make(chan string, 1)
	onListen = func(a net.Addr) { addrCh <- a.String() }
	defer func() { onListen = nil }()

	aggErr := make(chan error, 1)
	var aggOut bytes.Buffer
	go func() {
		aggErr <- run(context.Background(), []string{
			"-role", "aggregate", "-cluster-listen", "127.0.0.1:0",
			"-expect", "1", "-json", "-window", "24h",
		}, nil, &aggOut)
	}()
	addr := <-addrCh

	var nodeOut bytes.Buffer
	args := append([]string{
		"-role", "ingest", "-forward", "http://" + addr,
		"-node", "solo", "-json", "-window", "24h",
	}, paths...)
	if err := run(context.Background(), args, nil, &nodeOut); err != nil {
		t.Fatal(err)
	}
	if err := <-aggErr; err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(aggOut.String()), "\n")
	if len(lines) != 2 { // one window + trailing stats record
		t.Fatalf("aggregator JSON lines = %d:\n%s", len(lines), aggOut.String())
	}
	var rec struct {
		Window    int `json:"window"`
		Requests  int `json:"requests"`
		Campaigns int `json:"campaigns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Requests == 0 || rec.Campaigns == 0 {
		t.Errorf("degenerate aggregated window: %+v", rec)
	}
	var stats struct {
		Nodes    int `json:"nodes"`
		Windows  int `json:"windows"`
		Lineages int `json:"lineages"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 1 || stats.Windows != 1 || stats.Lineages == 0 {
		t.Errorf("degenerate aggregator stats: %+v", stats)
	}

	nodeLines := strings.Split(strings.TrimSpace(nodeOut.String()), "\n")
	var nodeStats struct {
		Node      string `json:"node"`
		Forwarded int    `json:"forwarded"`
	}
	if err := json.Unmarshal([]byte(nodeLines[len(nodeLines)-1]), &nodeStats); err != nil {
		t.Fatal(err)
	}
	if nodeStats.Node != "solo" || nodeStats.Forwarded != 2 { // window + final marker
		t.Errorf("node stats record: %+v", nodeStats)
	}
}

// runMergeTier drives the full 2 × 2 in-process through run(): two
// self-partitioning ingest nodes → -role merge → -role aggregate, both
// tiers on -cluster-listen 127.0.0.1:0. It returns each process's stdout
// (root, merge tier, ingest 0, ingest 1).
func runMergeTier(t *testing.T, paths []string, extra ...string) (root, merge string, ingest [2]string) {
	t.Helper()
	addrCh := make(chan string, 1)
	onListen = func(a net.Addr) { addrCh <- a.String() }
	defer func() { onListen = nil }()

	tier := func(out *bytes.Buffer, args ...string) (string, chan error) {
		errCh := make(chan error, 1)
		args = append(append(args, "-cluster-listen", "127.0.0.1:0", "-window", "24h"), extra...)
		go func() { errCh <- run(context.Background(), args, nil, out) }()
		return <-addrCh, errCh
	}
	var rootOut, mergeOut bytes.Buffer
	rootAddr, rootErr := tier(&rootOut, "-role", "aggregate", "-expect", "1")
	mergeAddr, mergeErr := tier(&mergeOut, "-role", "merge", "-expect", "2",
		"-node", "merge0", "-forward", "http://"+rootAddr)

	for i := range ingest {
		var out bytes.Buffer
		args := append(append([]string{
			"-role", "ingest", "-forward", "http://" + mergeAddr,
			"-shard-of", fmt.Sprintf("%d/2", i), "-window", "24h",
		}, extra...), paths...)
		if err := run(context.Background(), args, nil, &out); err != nil {
			t.Fatalf("ingest node %d: %v", i, err)
		}
		ingest[i] = out.String()
	}
	if err := <-mergeErr; err != nil {
		t.Fatalf("merge tier: %v", err)
	}
	if err := <-rootErr; err != nil {
		t.Fatalf("root: %v", err)
	}
	return rootOut.String(), mergeOut.String(), ingest
}

// The merge-tier acceptance test at the CLI layer: 2 ingest → merge →
// aggregate reproduces the standalone run's window reports, deltas and
// lineage summary, and each tier reports what it fanned in.
func TestRunMergeTierEquivalence(t *testing.T) {
	_, paths := writeWorld(t, 2)

	var std bytes.Buffer
	if err := run(context.Background(), append([]string{"-window", "24h"}, paths...), nil, &std); err != nil {
		t.Fatal(err)
	}
	root, merge, ingest := runMergeTier(t, paths)

	if got, want := windowLines(root), windowLines(std.String()); got != want || want == "" {
		t.Errorf("merge-tier window output diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, want := summaryOf(t, root), summaryOf(t, std.String()); got != want {
		t.Errorf("merge-tier lineage summary diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(root, "aggregated 2 fragments from 1 nodes") {
		t.Errorf("missing root stats:\n%s", root)
	}
	// The tier prints no window lines, only its summary sentence.
	if !strings.HasPrefix(merge, "merge merge0: merged 4 fragments from 2 nodes (0 late, 0 duplicate) into 2 windows (0 empty); forwarded 3 (") ||
		strings.Count(merge, "\n") != 1 {
		t.Errorf("merge tier output:\n%s", merge)
	}
	for i, out := range ingest {
		if !strings.Contains(out, "forwarded window 1 ") ||
			!strings.Contains(out, fmt.Sprintf("node shard%d: ingested ", i)) ||
			!strings.Contains(out, "; forwarded 3 fragments (") {
			t.Errorf("ingest node %d output:\n%s", i, out)
		}
	}
}

// Every role's -json summary record keeps exactly its key set: front
// counters, then the back's (lineages, or the node's forward counters).
func TestRunMergeTierJSON(t *testing.T) {
	_, paths := writeWorld(t, 2)

	var std bytes.Buffer
	if err := run(context.Background(), append([]string{"-window", "24h", "-json"}, paths...), nil, &std); err != nil {
		t.Fatal(err)
	}
	root, merge, ingest := runMergeTier(t, paths, "-json")

	engine := []string{"events", "late", "windows", "emptyWindows"}
	fragments := []string{"nodes", "fragments", "lateFragments", "duplicateFragments", "windows", "emptyWindows"}
	forward := []string{"node", "forwarded", "retries", "bytes", "spooled", "spoolDropped"}
	cases := []struct {
		role, out string
		windows   int // window records before the summary
		keys      []string
	}{
		{"standalone", std.String(), 2, append([]string{"lineages"}, engine...)},
		{"aggregate", root, 2, append([]string{"requests", "lineages"}, fragments...)},
		{"merge", merge, 0, append(forward, fragments...)},
		{"ingest0", ingest[0], 2, append(forward, engine...)},
		{"ingest1", ingest[1], 2, append(forward, engine...)},
	}
	// records splits NDJSON output into its window records and the
	// trailing summary record.
	records := func(out string) (windows []string, summary string) {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		return lines[:len(lines)-1], lines[len(lines)-1]
	}
	for _, tc := range cases {
		windows, summary := records(tc.out)
		if len(windows) != tc.windows {
			t.Errorf("%s: %d window records, want %d:\n%s", tc.role, len(windows), tc.windows, tc.out)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(summary), &rec); err != nil {
			t.Errorf("%s: %v", tc.role, err)
			continue
		}
		for _, k := range tc.keys {
			if _, ok := rec[k]; !ok {
				t.Errorf("%s summary lacks %q: %s", tc.role, k, summary)
			}
			delete(rec, k)
		}
		if len(rec) != 0 {
			t.Errorf("%s summary has extra keys %v", tc.role, rec)
		}
	}
	got, _ := records(root)
	want, _ := records(std.String())
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("merge-tier NDJSON windows diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestParseShardOf(t *testing.T) {
	shard, of, err := parseShardOf("1/3")
	if err != nil || shard != 1 || of != 3 {
		t.Errorf("parseShardOf(1/3) = %d,%d,%v", shard, of, err)
	}
	for _, bad := range []string{"", "2", "a/b", "-1/2", "2/2", "3/2", "1/0"} {
		if _, _, err := parseShardOf(bad); err == nil {
			t.Errorf("parseShardOf(%q) accepted", bad)
		}
	}
}

func TestClusterRoleValidation(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-role", "bogus"},
		{"-role", "ingest"}, // missing -forward
		{"-role", "ingest", "-forward", "http://x", "-shard-of", "9/2"},                  // bad shard
		{"-role", "ingest", "-forward", "http://x"},                                      // missing -node
		{"-role", "aggregate"},                                                           // missing -cluster-listen
		{"-role", "aggregate", "-cluster-listen", ":0"},                                  // missing -expect
		{"-role", "aggregate", "-cluster-listen", ":0", "-expect", "1", "-listen", ":0"}, // double listen
		{"-role", "aggregate", "-cluster-listen", ":0", "-expect", "1", "x.tsv"},         // stray files
		{"-role", "merge"},                                                                  // missing -cluster-listen
		{"-role", "merge", "-cluster-listen", ":0"},                                         // missing -expect
		{"-role", "merge", "-cluster-listen", ":0", "-expect", "1"},                         // missing -forward
		{"-role", "merge", "-cluster-listen", ":0", "-expect", "1", "-forward", "http://x"}, // missing -node
		{"-push"}, // an events front takes pushes on -listen
		{"-role", "ingest", "-forward", "http://x", "-node", "n", "-push"}, // same, forwarding back
	}
	for _, args := range cases {
		if err := run(context.Background(), args, strings.NewReader(""), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
