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
)

// The daemon's observability plane end-to-end: latency histograms and the
// watermark-lag gauge on /metrics, a window lifecycle trace at
// /v1/windows/{seq}/trace, pprof absent without -pprof, structured JSON
// diagnostics on stderr-equivalent, and -trace-log NDJSON spans on disk.
func TestRunObservabilityEndpoints(t *testing.T) {
	_, paths := writeWorld(t, 2)
	day1, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	day2, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}

	traceLog := filepath.Join(t.TempDir(), "spans.ndjson")
	addrCh := make(chan string, 1)
	onListen = func(a net.Addr) { addrCh <- a.String() }
	defer func() { onListen = nil }()

	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		runErr <- run(context.Background(), []string{
			"-window", "24h", "-listen", "127.0.0.1:0",
			"-log-format", "json", "-log-level", "debug",
			"-trace-log", traceLog,
		}, pr, &out)
	}()

	// Day 2's events push the watermark past day 1's window, so window 0
	// seals, detects and commits while the stream is still live.
	if _, err := pw.Write(append(day1, day2...)); err != nil {
		t.Fatal(err)
	}
	addr := <-addrCh

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Wait for window 0's trace to materialize. Spans are appended as the
	// window moves through its lifecycle, so poll until the final commit
	// phase — the store append — shows up.
	deadline := time.Now().Add(30 * time.Second)
	var traceBody string
	for time.Now().Before(deadline) {
		if code, body := get("/v1/windows/0/trace"); code == http.StatusOK && strings.Contains(body, `"store"`) {
			traceBody = body
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if traceBody == "" {
		t.Fatal("window 0 trace never reached the store phase")
	}
	var wt struct {
		Window int64 `json:"window"`
		Spans  []struct {
			Phase string `json:"phase"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(traceBody), &wt); err != nil {
		t.Fatalf("bad trace JSON: %v\n%s", err, traceBody)
	}
	phases := map[string]bool{}
	for _, s := range wt.Spans {
		phases[s.Phase] = true
	}
	for _, want := range []string{"seal", "detect", "store"} {
		if !phases[want] {
			t.Errorf("trace missing %q span: %s", want, traceBody)
		}
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without -pprof: status %d, want 404", code)
	}

	_, metrics := get("/metrics")
	for _, want := range []string{
		"smash_ingest_seal_seconds_bucket",
		"smash_seal_commit_seconds_count",
		"smash_window_detect_seconds_count",
		"smash_sink_consume_seconds_count",
		"smash_watermark_lag_seconds",
		"smash_go_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	_, body := get("/v1/stats")
	var stats struct {
		Store struct {
			Windows int `json:"windows"`
		} `json:"store"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil || stats.Store.Windows != 1 {
		t.Errorf("/v1/stats store windows = %d (%v), want 1", stats.Store.Windows, err)
	}

	pw.Close()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}

	// -trace-log: every line is one JSON span with window and phase.
	data, err := os.ReadFile(traceLog)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 4 {
		t.Fatalf("trace log has %d spans, want at least 4:\n%s", len(lines), data)
	}
	logged := map[string]bool{}
	for _, ln := range lines {
		var span struct {
			Window *int64 `json:"window"`
			Phase  string `json:"phase"`
		}
		if err := json.Unmarshal([]byte(ln), &span); err != nil {
			t.Fatalf("bad NDJSON span: %v\n%s", err, ln)
		}
		if span.Window == nil || span.Phase == "" {
			t.Fatalf("span missing window or phase: %s", ln)
		}
		logged[span.Phase] = true
	}
	for _, want := range []string{"seal", "detect", "store"} {
		if !logged[want] {
			t.Errorf("trace log missing %q span", want)
		}
	}
}

// Bad -log-level and -log-format values fail fast.
func TestRunLogFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-log-level", "chatty"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad -log-level accepted")
	}
	if err := run(context.Background(), []string{"-log-format", "xml"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad -log-format accepted")
	}
}
