package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smash/internal/synth"
	"smash/internal/trace"
)

// writeWorld materializes a small multi-day world as day TSVs.
func writeWorld(t *testing.T, days int) (string, []string) {
	t.Helper()
	world, err := synth.Generate(synth.Config{
		Name: "smashd-test", Seed: 9, Days: days,
		Clients: 250, BenignServers: 600, MeanRequests: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for i, day := range world.Days {
		p := filepath.Join(dir, "day.tsv")
		if days > 1 {
			p = filepath.Join(dir, "day"+string(rune('1'+i))+".tsv")
		}
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteTrace(f, day); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return dir, paths
}

func TestRunReplaysDayFiles(t *testing.T) {
	_, paths := writeWorld(t, 2)
	var out bytes.Buffer
	args := append([]string{"-window", "24h", "-workers", "2"}, paths...)
	if err := run(context.Background(), args, nil, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "window 0 [") || !strings.Contains(text, "window 1 [") {
		t.Errorf("missing window lines:\n%s", text)
	}
	if !strings.Contains(text, "appear") {
		t.Errorf("no appear deltas over a malicious world:\n%s", text)
	}
	if !strings.Contains(text, "lineages over 2 day(s)") {
		t.Errorf("missing tracker summary:\n%s", text)
	}
}

func TestRunStdinJSON(t *testing.T) {
	_, paths := writeWorld(t, 1)
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-json", "-window", "24h"}, bytes.NewReader(data), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 { // one window + trailing stats record
		t.Fatalf("JSON lines = %d, want 2:\n%s", len(lines), out.String())
	}
	var rec struct {
		Window    int `json:"window"`
		Requests  int `json:"requests"`
		Campaigns int `json:"campaigns"`
		Deltas    []struct {
			Kind    string `json:"kind"`
			Lineage int    `json:"lineage"`
		} `json:"deltas"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad window JSON: %v\n%s", err, lines[0])
	}
	if rec.Requests == 0 || rec.Campaigns == 0 || len(rec.Deltas) == 0 {
		t.Errorf("degenerate window record: %+v", rec)
	}
	var stats struct {
		Events   int `json:"events"`
		Windows  int `json:"windows"`
		Lineages int `json:"lineages"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &stats); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, lines[1])
	}
	if stats.Events == 0 || stats.Windows != 1 || stats.Lineages == 0 {
		t.Errorf("degenerate stats record: %+v", stats)
	}
}

func TestRunSlidingWindows(t *testing.T) {
	// Two events 12 hours apart: with a 24h window sliding by 12h the
	// second event overlaps two windows.
	tr := &trace.Trace{Name: "sliding"}
	base := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	for i, h := range []int{1, 13} {
		tr.Requests = append(tr.Requests, trace.Request{
			Time:   base.Add(time.Duration(h) * time.Hour),
			Client: "c1", Host: "a.com", ServerIP: "9.9.9.9",
			Path: "/x" + string(rune('0'+i)), Status: 200,
		})
	}
	p := filepath.Join(t.TempDir(), "sliding.tsv")
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-window", "24h", "-stride", "12h", p}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "window 1 [") {
		t.Errorf("expected a second sliding window:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "into 2 windows") {
		t.Errorf("expected 2 windows total:\n%s", out.String())
	}
}

// summaryOf extracts the tracker summary block from smashd text output.
func summaryOf(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "tracker:")
	if i < 0 {
		t.Fatalf("no tracker summary in output:\n%s", out)
	}
	return out[i:]
}

// A run with -state-dir, restarted on the remaining day files, ends with
// exactly the lineage summary of an uninterrupted run over all days.
func TestRunStateDirResume(t *testing.T) {
	_, paths := writeWorld(t, 4)

	var full bytes.Buffer
	if err := run(context.Background(), append([]string{"-window", "24h"}, paths...), nil, &full); err != nil {
		t.Fatal(err)
	}
	want := summaryOf(t, full.String())

	stateDir := filepath.Join(t.TempDir(), "state")
	var out1 bytes.Buffer
	args1 := append([]string{"-window", "24h", "-state-dir", stateDir}, paths[:2]...)
	if err := run(context.Background(), args1, nil, &out1); err != nil {
		t.Fatal(err)
	}

	var out2 bytes.Buffer
	args2 := append([]string{"-window", "24h", "-state-dir", stateDir}, paths[2:]...)
	if err := run(context.Background(), args2, nil, &out2); err != nil {
		t.Fatal(err)
	}
	if got := summaryOf(t, out2.String()); got != want {
		t.Errorf("resumed summary diverged:\n%s\nvs uninterrupted:\n%s", got, want)
	}
	if !strings.Contains(out2.String(), "over 4 day(s)") {
		t.Errorf("resumed run lost the window clock:\n%s", out2.String())
	}
}

// -listen serves live lineage state while windows are still being
// detected, and the server shuts down cleanly when the stream drains.
func TestRunListenServesLiveState(t *testing.T) {
	_, paths := writeWorld(t, 2)
	day1, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	day2, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan string, 1)
	onListen = func(a net.Addr) { addrCh <- a.String() }
	defer func() { onListen = nil }()

	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		runErr <- run(context.Background(), []string{"-window", "24h", "-listen", "127.0.0.1:0"}, pr, &out)
	}()

	// Feed both days and keep the pipe open: day 2's events push the
	// watermark past day 1's window, so window 0 is detected and served
	// while the stream is still live.
	if _, err := pw.Write(append(day1, day2...)); err != nil {
		t.Fatal(err)
	}
	addr := <-addrCh

	deadline := time.Now().Add(30 * time.Second)
	var count int
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/lineages")
		if err == nil {
			var body struct {
				Count int `json:"count"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil && body.Count > 0 {
				count = body.Count
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if count == 0 {
		t.Error("no lineages served while the stream was live")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"smash_store_windows_total 1", `smash_pipeline_stage_seconds_count{stage="mine"} 1`} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("live metrics missing %q", want)
		}
	}

	pw.Close() // EOF: drain remaining windows, shut the server down
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "lineages over 2 day(s)") {
		t.Errorf("missing final summary:\n%s", out.String())
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still reachable after run returned")
	}
}

// -retire-after threads the retirement policy into the daemon's tracker.
func TestRunRetireAfterFlag(t *testing.T) {
	// One active day followed by three empty ones: a 24h window with
	// -retire-after 1 retires the day-1 lineages once the gap exceeds one
	// window.
	world, err := synth.Generate(synth.Config{
		Name: "retire-test", Seed: 9, Days: 1,
		Clients: 250, BenignServers: 600, MeanRequests: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	day := world.Days[0]
	last := day.Requests[len(day.Requests)-1]
	for i := 1; i <= 3; i++ {
		probe := last
		probe.Time = last.Time.Add(time.Duration(i) * 24 * time.Hour)
		probe.Client = "straggler"
		day.Requests = append(day.Requests, probe)
	}
	p := filepath.Join(t.TempDir(), "retire.tsv")
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTrace(f, day); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-window", "24h", "-retire-after", "1", p}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "retired") {
		t.Errorf("no lineage retired:\n%s", out.String())
	}
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, nil, &out); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := run(context.Background(), []string{"-window", "0s"}, strings.NewReader(""), &out); err == nil {
		t.Error("zero window accepted")
	}
	if err := run(context.Background(), []string{"/nonexistent/trace.tsv"}, nil, &out); err == nil {
		t.Error("missing file accepted")
	}
}
