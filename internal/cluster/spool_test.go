package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smash/internal/obs"
	"smash/internal/stream"
	"smash/internal/trace"
	"smash/internal/wire"
)

// recordingAggregator is an /v1/ingest endpoint whose availability the
// test flips, recording delivery order.
type recordingAggregator struct {
	refuse atomic.Bool

	mu      sync.Mutex
	windows []int64
	finals  int
}

func (a *recordingAggregator) handler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.refuse.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("ingest read: %v", err)
			return
		}
		frag, err := wire.DecodeFragment(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a.mu.Lock()
		if frag.Final {
			a.finals++
		} else {
			a.windows = append(a.windows, frag.Window)
		}
		a.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	})
}

func (a *recordingAggregator) delivered() ([]int64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int64(nil), a.windows...), a.finals
}

func spoolWindow(i int64) *stream.WindowResult {
	start := Epoch.Add(time.Duration(i) * time.Hour)
	idx := trace.NewIndex()
	r := trace.Request{
		Time: start.Add(time.Minute), Client: "c", Host: "h.example.com",
		ServerIP: "10.0.0.1", Path: "/", Status: 200,
	}
	idx.Add(&r)
	return &stream.WindowResult{
		Seq: int(i), Start: start, End: start.Add(time.Hour), Index: idx,
	}
}

// The durable-forwarder contract: fragments that exhaust their delivery
// attempts during an outage spill to the spool instead of erroring, a
// restarted forwarder picks the spool up, and everything drains in the
// original window order once the aggregator answers again.
func TestForwarderSpoolOutageAndRestart(t *testing.T) {
	var agg recordingAggregator
	srv := httptest.NewServer(agg.handler(t))
	defer srv.Close()

	dir := t.TempDir()
	newFwd := func() *Forwarder {
		f, err := NewForwarder(ForwarderConfig{
			URL: srv.URL, Node: "n0", Stride: time.Hour,
			MaxAttempts: 2, Backoff: time.Millisecond, SpoolDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	f1 := newFwd()
	if err := f1.Consume(spoolWindow(0)); err != nil {
		t.Fatal(err)
	}
	agg.refuse.Store(true)
	// The outage: both fragments exhaust retries and spill, no error.
	if err := f1.Consume(spoolWindow(1)); err != nil {
		t.Fatalf("outage consume should spool, got %v", err)
	}
	if err := f1.Consume(spoolWindow(2)); err != nil {
		t.Fatalf("outage consume should spool, got %v", err)
	}
	st := f1.Stats()
	if st.Spooled != 2 || st.SpoolPending != 2 || st.SpoolBytes == 0 {
		t.Fatalf("spool stats after outage: %+v", st)
	}
	// f1 is abandoned here: the node process "crashed" with a full spool.

	// A restarted forwarder on the same spool dir sees the backlog...
	f2 := newFwd()
	if got := f2.Stats().SpoolPending; got != 2 {
		t.Fatalf("restarted forwarder sees %d pending, want 2", got)
	}
	// ...and with the aggregator back, a new window queues behind the
	// backlog and the whole spool drains oldest-first.
	agg.refuse.Store(false)
	if err := f2.Consume(spoolWindow(3)); err != nil {
		t.Fatal(err)
	}
	if err := f2.CloseContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	windows, finals := agg.delivered()
	want := []int64{0, 1, 2, 3}
	if len(windows) != len(want) {
		t.Fatalf("delivered windows = %v, want %v", windows, want)
	}
	for i := range want {
		if windows[i] != want[i] {
			t.Fatalf("delivered windows = %v, want %v (order matters)", windows, want)
		}
	}
	if finals != 1 {
		t.Errorf("finals delivered = %d, want 1", finals)
	}
	if st := f2.Stats(); st.SpoolPending != 0 || st.SpoolBytes != 0 {
		t.Errorf("spool not drained: %+v", st)
	}
}

// A 4xx is a permanent rejection: never spooled, surfaced as an error.
func TestForwarderRejectionNotSpooled(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad fragment", http.StatusBadRequest)
	}))
	defer srv.Close()

	f, err := NewForwarder(ForwarderConfig{
		URL: srv.URL, Node: "n0", Stride: time.Hour,
		MaxAttempts: 3, Backoff: time.Millisecond, SpoolDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Consume(spoolWindow(0)); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("rejection error = %v", err)
	}
	if st := f.Stats(); st.Spooled != 0 || st.SpoolPending != 0 || st.Retries != 0 {
		t.Errorf("rejected fragment touched the spool: %+v", st)
	}
}

// The spool bound: oldest entries are evicted (and counted) to admit new
// ones; drain order among survivors is preserved.
func TestSpoolBound(t *testing.T) {
	bodies := make([][]byte, 4)
	for i := range bodies {
		bodies[i] = wire.EncodeFragment(fragFor("n", int64(i), "c"))
	}
	// Room for roughly two entries.
	max := int64(len(bodies[0])+len(bodies[1])) + 8
	sp, err := openSpool(t.TempDir(), max, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		if err := sp.put(b); err != nil {
			t.Fatal(err)
		}
	}
	_, dropped := sp.counters()
	if dropped == 0 {
		t.Fatal("bound exceeded without evictions")
	}
	var got []int64
	for sp.pending() > 0 {
		seq, body, _, ok := sp.peek()
		if !ok {
			break
		}
		frag, err := wire.DecodeFragment(body)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, frag.Window)
		sp.remove(seq)
	}
	if len(got) == 0 || len(got) >= len(bodies) {
		t.Fatalf("survivors = %v, want a strict non-empty subset", got)
	}
	// Survivors are the newest entries, still in order.
	wantFirst := int64(len(bodies) - len(got))
	for i, w := range got {
		if w != wantFirst+int64(i) {
			t.Fatalf("survivors = %v, want the newest %d in order", got, len(got))
		}
	}
	if sp.pendingBytes() != 0 {
		t.Errorf("pendingBytes = %d after full drain", sp.pendingBytes())
	}
}

// A put torn by a crash or a full disk leaves only its ".frag.tmp"
// file, which never became a spool entry: open removes it, so it neither
// survives restarts nor hides from the spool's byte count.
func TestTornSpoolWriteDiscarded(t *testing.T) {
	dir := t.TempDir()
	sp, err := openSpool(dir, 1<<20, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.put(wire.EncodeFragment(fragFor("n", 0, "c"))); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "000000000001.frag.tmp")
	if err := os.WriteFile(torn, []byte("half a fragm"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err = openSpool(dir, 1<<20, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn %s survived open (stat err %v)", filepath.Base(torn), err)
	}
	if n := sp.pending(); n != 1 {
		t.Errorf("pending = %d, want the one whole entry", n)
	}
	// The next put continues the sequence past the whole entry.
	if err := sp.put(wire.EncodeFragment(fragFor("n", 1, "c"))); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "000000000001.frag")); err != nil {
		t.Errorf("second entry: %v", err)
	}
}

// CloseContext keeps retrying the final marker through an outage and
// gives up only when its context ends — satellite semantics for a node
// shutting down while the aggregator is briefly gone.
func TestForwarderCloseContext(t *testing.T) {
	var agg recordingAggregator
	srv := httptest.NewServer(agg.handler(t))
	defer srv.Close()

	dir := t.TempDir()
	f, err := NewForwarder(ForwarderConfig{
		URL: srv.URL, Node: "n0", Stride: time.Hour,
		MaxAttempts: 2, Backoff: time.Millisecond, SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg.refuse.Store(true)
	if err := f.Consume(spoolWindow(0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.CloseContext(ctx); err == nil || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("CloseContext during outage = %v, want abandoned error", err)
	}

	// The aggregator returns; a retried shutdown drains spool + final.
	agg.refuse.Store(false)
	f2, err := NewForwarder(ForwarderConfig{
		URL: srv.URL, Node: "n0", Stride: time.Hour,
		MaxAttempts: 2, Backoff: time.Millisecond, SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.CloseContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	windows, finals := agg.delivered()
	if len(windows) != 1 || windows[0] != 0 || finals != 1 {
		t.Errorf("after recovery: windows=%v finals=%d, want [0] and 1", windows, finals)
	}
}
