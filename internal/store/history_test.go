package store

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// historyJSON renders the full retained history as one JSON blob — the
// byte-identity currency of the restart tests.
func historyJSON(t *testing.T, st *Store) string {
	t.Helper()
	data, err := json.Marshal(st.History(0))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHistoryMemoryOnly(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	days := worldEvents(t, 3)
	runDays(t, days, nil, st)
	hs := st.HistoryStats()
	if hs.Windows != 3 || hs.FirstSeq != 0 || hs.LastSeq != 2 {
		t.Errorf("history stats = %+v", hs)
	}
	if hs.Bytes != 0 {
		t.Errorf("memory-only history claims %d bytes on disk", hs.Bytes)
	}
	if du := st.DiskUsage(); du != (DiskUsage{}) {
		t.Errorf("memory-only disk usage = %+v", du)
	}
	if got := st.History(2); len(got) != 1 || got[0].Seq != 2 {
		t.Errorf("History(2) = %+v", got)
	}
}

// History queries must be byte-identical across a clean restart.
func TestHistorySurvivesReopen(t *testing.T) {
	days := worldEvents(t, 4)
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days, nil, st)
	want := historyJSON(t, st)
	wantDU := st.DiskUsage()
	if wantDU.HistoryBytes == 0 {
		t.Fatal("durable store reports no history bytes")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := historyJSON(t, st2); got != want {
		t.Errorf("history diverged across reopen:\n%s\nvs:\n%s", got, want)
	}
	if got := st2.DiskUsage().HistoryBytes; got != wantDU.HistoryBytes {
		t.Errorf("history bytes = %d, want %d", got, wantDU.HistoryBytes)
	}
}

// The kill -9 analogue: no final snapshot, and the newest history files
// may never have landed. A record that never landed is a window that was
// never durable: reopen restores exactly the windows before it and
// answers history queries byte-identically to the store at that point.
func TestHistoryAfterKill(t *testing.T) {
	days := worldEvents(t, 4)
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, SnapshotEvery: 100}) // no mid-run snapshot
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days[:2], nil, st)
	want := historyJSON(t, st)
	runDays(t, days[2:], st.Restore(), st)
	st.Abandon()

	// Simulate the crash landing before the last two history renames.
	for _, seq := range []int{2, 3} {
		if err := os.Remove(historyFile(dir, seq)); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Applied() != 2 || st2.Stats().Replayed != 2 {
		t.Errorf("applied=%d replayed=%d, want 2/2", st2.Applied(), st2.Stats().Replayed)
	}
	if got := historyJSON(t, st2); got != want {
		t.Errorf("history after kill diverged:\n%s\nvs:\n%s", got, want)
	}
}

func TestRetainWindows(t *testing.T) {
	days := worldEvents(t, 5)
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, RetainWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days, nil, st)
	hs := st.HistoryStats()
	if hs.Windows != 2 || hs.FirstSeq != 3 || hs.LastSeq != 4 {
		t.Errorf("history stats = %+v", hs)
	}
	if hs.GCRuns == 0 {
		t.Error("no GC runs counted")
	}
	for seq := 0; seq < 3; seq++ {
		if _, err := os.Stat(historyFile(dir, seq)); !os.IsNotExist(err) {
			t.Errorf("GC'd history file %d still on disk: %v", seq, err)
		}
	}
	// Retention bounds history, not correctness: the tracker state still
	// spans all five windows.
	if st.Applied() != 5 {
		t.Errorf("applied = %d", st.Applied())
	}
	want := historyJSON(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Dir: dir, RetainWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := historyJSON(t, st2); got != want {
		t.Errorf("retained history diverged across reopen:\n%s\nvs:\n%s", got, want)
	}
}

func TestRetainAge(t *testing.T) {
	days := worldEvents(t, 5)
	st, err := Open(Config{RetainAge: 36 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days, nil, st)
	// Day windows: with a 36h horizon behind the newest window's end, only
	// the newest two windows can remain.
	hs := st.HistoryStats()
	if hs.Windows != 2 || hs.FirstSeq != 3 {
		t.Errorf("history stats = %+v", hs)
	}
}

func TestSubscribeDeltasBacklogAndLive(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	days := worldEvents(t, 2)
	runDays(t, days, nil, st)

	backlog, sub := st.SubscribeDeltas(0)
	defer sub.Close()
	if len(backlog) != 2 {
		t.Fatalf("backlog = %d records", len(backlog))
	}
	if st.HistoryStats().Subscribers != 1 {
		t.Errorf("subscribers = %d", st.HistoryStats().Subscribers)
	}

	// A third window consumed after subscribing arrives live.
	runDays(t, worldEvents(t, 1), st.Restore(), st)
	select {
	case rec := <-sub.C:
		if rec.Seq != 2 {
			t.Errorf("live record seq = %d", rec.Seq)
		}
	default:
		t.Error("no live record delivered")
	}

	sub.Close()
	if st.HistoryStats().Subscribers != 0 {
		t.Errorf("subscribers after close = %d", st.HistoryStats().Subscribers)
	}
	if _, ok := <-sub.C; ok {
		t.Error("closed subscription channel still open")
	}
}

// A subscriber that stops draining is dropped instead of stalling the
// engine's emit path.
func TestSlowSubscriberDropped(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, sub := st.SubscribeDeltas(0)
	rec := &Record{}
	st.mu.Lock()
	for i := 0; i <= subBuffer; i++ {
		st.publish(rec)
	}
	st.mu.Unlock()
	hs := st.HistoryStats()
	if hs.Subscribers != 0 || hs.Dropped != 1 {
		t.Errorf("history stats = %+v", hs)
	}
	drained := 0
	for range sub.C {
		drained++
	}
	if drained != subBuffer {
		t.Errorf("drained %d buffered records, want %d", drained, subBuffer)
	}
	sub.Close() // idempotent after drop
}
