package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smash/internal/campaign"
	"smash/internal/core"
	"smash/internal/stream"
	"smash/internal/synth"
	"smash/internal/trace"
	"smash/internal/tracker"
)

// worldEvents synthesizes a small multi-day world and returns its events
// grouped per day, time-ordered within the feed.
func worldEvents(t testing.TB, days int) [][]trace.Request {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		Name: "storetest", Seed: 21, Days: days,
		Clients: 250, BenignServers: 600, MeanRequests: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]trace.Request
	for _, day := range w.Days {
		out = append(out, day.Requests)
	}
	return out
}

// runDays streams the given day slices through an engine wired to tk
// (nil for a fresh tracker) and sinks, returning the engine after the run
// has fully drained.
func runDays(t testing.TB, days [][]trace.Request, tk *tracker.Tracker, sinks ...stream.Sink) *stream.Engine {
	t.Helper()
	var all []trace.Request
	for _, d := range days {
		all = append(all, d...)
	}
	eng, err := stream.New(stream.Config{
		Name:     "storetest",
		Window:   24 * time.Hour,
		Tracker:  tk,
		Sinks:    sinks,
		Detector: []core.Option{core.WithSeed(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range eng.Start(&stream.SliceSource{Requests: all}) {
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestMemoryOnlyStore(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	days := worldEvents(t, 2)
	eng := runDays(t, days, nil, st)
	stats := st.Stats()
	if stats.Windows != 2 || stats.Lineages == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if got, want := st.Restore().Summary(), eng.Tracker().Summary(); got != want {
		t.Errorf("mirror diverged from engine tracker:\n%s\nvs:\n%s", got, want)
	}
	if st.LastWindow() == nil || st.LastWindow().Window != 1 {
		t.Errorf("last window = %+v", st.LastWindow())
	}
	if err := st.Close(); err != nil {
		t.Errorf("memory-only Close: %v", err)
	}
}

func TestRoundTripReopen(t *testing.T) {
	days := worldEvents(t, 4)
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := runDays(t, days, nil, st)
	want := eng.Tracker().Summary()
	wantStats := st.Stats()
	if got := st.Restore().Summary(); got != want {
		t.Fatalf("live mirror diverged:\n%s\nvs:\n%s", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Restore().Summary(); got != want {
		t.Errorf("reopened summary diverged:\n%s\nvs:\n%s", got, want)
	}
	gotStats := st2.Stats()
	if gotStats.Counters != wantStats.Counters {
		t.Errorf("counters diverged: %+v vs %+v", gotStats.Counters, wantStats.Counters)
	}
	if gotStats.Replayed != 0 {
		t.Errorf("clean shutdown left %d records to replay", gotStats.Replayed)
	}
	if st2.Applied() != 4 {
		t.Errorf("applied = %d, want 4", st2.Applied())
	}
}

// The acceptance scenario: a run killed without Close (kill -9 analogue —
// every window's history file has landed but no final snapshot), restarted
// on the remaining input, must end in exactly the state of an
// uninterrupted run. Exercised over both recovery paths: pure history
// replay and snapshot + replay.
func TestKillRestartEquivalence(t *testing.T) {
	days := worldEvents(t, 4)
	uninterrupted := runDays(t, days, nil).Tracker().Summary()

	for _, snapEvery := range []int{1, 100} {
		dir := t.TempDir()
		st1, err := Open(Config{Dir: dir, SnapshotEvery: snapEvery})
		if err != nil {
			t.Fatal(err)
		}
		runDays(t, days[:2], nil, st1)
		// Kill: no Close, no final snapshot — Abandon leaves exactly the
		// on-disk state a kill -9 would.
		st1.Abandon()

		st2, err := Open(Config{Dir: dir, SnapshotEvery: snapEvery})
		if err != nil {
			t.Fatal(err)
		}
		if st2.Applied() != 2 {
			t.Fatalf("snapEvery=%d: restored %d windows, want 2", snapEvery, st2.Applied())
		}
		// Delta-kind counters must survive replay (Kind itself is not
		// serialized; classification goes by KindName).
		if st2.Stats().Appeared == 0 {
			t.Errorf("snapEvery=%d: replay lost appear-delta counters: %+v", snapEvery, st2.Stats().Counters)
		}
		eng2 := runDays(t, days[2:], st2.Restore(), st2)
		got := eng2.Tracker().Summary()
		if got != uninterrupted {
			t.Errorf("snapEvery=%d: resumed summary diverged:\n%s\nvs uninterrupted:\n%s",
				snapEvery, got, uninterrupted)
		}
		if mirror := st2.Restore().Summary(); mirror != uninterrupted {
			t.Errorf("snapEvery=%d: store mirror diverged:\n%s\nvs:\n%s", snapEvery, mirror, uninterrupted)
		}
		st2.Close()
	}
}

// Systematic fault enumeration: for every snapshot cadence and retention
// setting, a kill after any window must reopen to exactly the windows
// consumed, resume to the uninterrupted tracker, and end with the history
// of a store that was never killed.
func TestKillAnywhereEquivalence(t *testing.T) {
	const n = 5
	days := worldEvents(t, n)
	uninterrupted := runDays(t, days, nil).Tracker().Summary()
	for _, snapEvery := range []int{1, 2, 3, 100} {
		for _, retain := range []int{0, 1, 2, 3} {
			cfg := Config{SnapshotEvery: snapEvery, RetainWindows: retain}
			cfg.Dir = t.TempDir()
			ref, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runDays(t, days, nil, ref)
			want := historyJSONNoWindow(t, ref)
			ref.Close()
			for k := 1; k < n; k++ {
				name := fmt.Sprintf("snap%d/retain%d/kill%d", snapEvery, retain, k)
				cfg.Dir = t.TempDir()
				st1, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runDays(t, days[:k], nil, st1)
				st1.Abandon()

				st2, err := Open(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st2.Applied() != k {
					t.Errorf("%s: applied = %d, want %d", name, st2.Applied(), k)
				}
				eng := runDays(t, days[k:], st2.Restore(), st2)
				if got := eng.Tracker().Summary(); got != uninterrupted {
					t.Errorf("%s: resumed summary diverged:\n%s\nvs:\n%s", name, got, uninterrupted)
				}
				if got := historyJSONNoWindow(t, st2); got != want {
					t.Errorf("%s: history diverged:\n%s\nvs:\n%s", name, got, want)
				}
				st2.Close()
			}
		}
	}
}

// historyJSONNoWindow renders History(0) with the per-process window
// numbers zeroed: Record.Window and Delta.Window restart at 0 in every
// process, everything else must match byte for byte.
func historyJSONNoWindow(t *testing.T, st *Store) string {
	t.Helper()
	var recs []Record
	for _, r := range st.History(0) {
		rec := *r
		rec.Window = 0
		rec.Deltas = append([]stream.Delta(nil), r.Deltas...)
		for i := range rec.Deltas {
			rec.Deltas[i].Window = 0
		}
		recs = append(recs, rec)
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// A history write the kill interrupted leaves only a .tmp file: that
// window was never durable. Open removes it, and the resumed run matches
// an uninterrupted one.
func TestTornHistoryWriteDiscarded(t *testing.T) {
	days := worldEvents(t, 3)
	dir := t.TempDir()
	st1, err := Open(Config{Dir: dir, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days[:2], nil, st1)
	st1.Abandon() // killed: no Close, no final snapshot

	torn := historyFile(dir, 2) + ".tmp"
	if err := os.WriteFile(torn, []byte(`{"seq":2,"window":9,"req`), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Config{Dir: dir, SnapshotEvery: 100})
	if err != nil {
		t.Fatalf("torn write rejected: %v", err)
	}
	if st2.Applied() != 2 || st2.Stats().Replayed != 2 {
		t.Fatalf("applied=%d replayed=%d, want 2/2", st2.Applied(), st2.Stats().Replayed)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn write still on disk: %v", err)
	}
	eng := runDays(t, days[2:], st2.Restore(), st2)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	want := runDays(t, days, nil).Tracker().Summary()
	if got := eng.Tracker().Summary(); got != want {
		t.Errorf("post-torn-write resume diverged:\n%s\nvs:\n%s", got, want)
	}
}

// A snapshot followed by a kill leaves history records the snapshot
// already covers; reopening must skip them instead of double applying.
func TestSnapshotCrashIdempotent(t *testing.T) {
	days := worldEvents(t, 2)
	dir := t.TempDir()
	st1, err := Open(Config{Dir: dir, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days, nil, st1)
	want := st1.Restore().Summary()
	if err := st1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st1.Abandon() // crashed process: flock gone, no final snapshot

	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Applied() != 2 || st2.Stats().Replayed != 0 {
		t.Errorf("applied=%d replayed=%d, want 2/0 (snapshot covers the history)",
			st2.Applied(), st2.Stats().Replayed)
	}
	if got := st2.Restore().Summary(); got != want {
		t.Errorf("double-applied state:\n%s\nvs:\n%s", got, want)
	}
}

// A history write failure disables persistence but keeps the in-memory
// mirror tracking in lockstep with the engine — and everything durable up
// to the failure still restores.
func TestWALFailureDisablesPersistenceKeepsMirror(t *testing.T) {
	days := worldEvents(t, 3)
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days[:1], nil, st)

	// Break the history directory out from under the store: the next
	// Consume's write fails, which must poison persistence (not the
	// store).
	hdir := filepath.Join(dir, historyDir)
	saved := filepath.Join(dir, "history.saved")
	if err := os.Rename(hdir, saved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hdir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var rest []trace.Request
	for _, d := range days[1:] {
		rest = append(rest, d...)
	}
	eng, err := stream.New(stream.Config{
		Name:     "storetest",
		Window:   24 * time.Hour,
		Sinks:    []stream.Sink{st},
		Detector: []core.Option{core.WithSeed(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range eng.Start(&stream.SliceSource{Requests: rest}) {
	}
	if err := eng.Err(); err == nil || !strings.Contains(err.Error(), "store:") {
		t.Errorf("engine error = %v, want surfaced store error", err)
	}
	// The mirror observed all 3 windows' campaigns in sequence, so it must
	// match a continuous tracker over the same days despite the write
	// failure.
	want := runDays(t, days, nil).Tracker().Summary()
	if got := st.Restore().Summary(); got != want {
		t.Errorf("mirror fell behind after write failure:\n%s\nvs:\n%s", got, want)
	}
	if st.Stats().Windows != 3 {
		t.Errorf("mirror windows = %d, want 3", st.Stats().Windows)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close after poisoned persistence: %v", err)
	}

	// Only the pre-failure window survives on disk, cleanly.
	if err := os.Remove(hdir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(saved, hdir); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Applied() != 1 {
		t.Errorf("restored %d windows, want 1 (up to the failure)", st2.Applied())
	}
}

// Changing -retire-after across a restart must not rewrite history:
// snapshot + history replay under the recorded policy, and the new policy
// takes effect only for windows after recovery — also across a second
// crash.
func TestPolicyChangeAppliesOnlyForward(t *testing.T) {
	// SnapshotEvery 3: replay spans snapshot + trailing history record.
	// SnapshotEvery 100: everything after the birth snapshot is replayed —
	// the birth snapshot is what records the original policy.
	for _, snapEvery := range []int{3, 100} {
		t.Run(fmt.Sprintf("snapEvery=%d", snapEvery), func(t *testing.T) {
			testPolicyChange(t, snapEvery)
		})
	}
}

func testPolicyChange(t *testing.T, snapEvery int) {
	dir := t.TempDir()
	mk := func(retire int) Config {
		return Config{Dir: dir, SnapshotEvery: snapEvery, NewTracker: func() *tracker.Tracker {
			tk := tracker.New()
			tk.RetireAfter = retire
			return tk
		}}
	}
	base := time.Date(2020, 9, 13, 0, 0, 0, 0, time.UTC)
	consume := func(st *Store, seq int, active bool) {
		t.Helper()
		w := &stream.WindowResult{
			Seq:   seq,
			Start: base.AddDate(0, 0, seq),
			End:   base.AddDate(0, 0, seq+1),
		}
		if active {
			w.Requests = 10
			w.Report = &core.Report{Campaigns: []campaign.Campaign{{
				Servers: []string{"a.test", "b.test"},
				Clients: []string{"c1", "c2"},
				Kind:    campaign.KindCommunication,
			}}}
		}
		if err := st.Consume(w); err != nil {
			t.Fatal(err)
		}
	}

	// Under retire-never: one active window, then three idle ones. The
	// snapshot lands after window 2 (SnapshotEvery=3), window 3 is only
	// in history. No Close: the kill -9 state.
	st1, err := Open(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	for seq, active := range []bool{true, false, false, false} {
		consume(st1, seq, active)
	}
	want := st1.Restore().Summary()
	st1.Abandon() // killed here

	// Reopen with retire-after 2: the replayed window 3 must NOT
	// retroactively retire lineage 0 (it was live when recorded).
	st2, err := Open(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Restore().Summary(); got != want {
		t.Errorf("policy change rewrote replayed history:\n%s\nvs:\n%s", got, want)
	}
	tk := st2.Restore()
	if tk.RetireAfter != 2 {
		t.Errorf("RetireAfter = %d, want the new policy (2)", tk.RetireAfter)
	}
	// Going forward the new policy applies: the next window retires the
	// long-idle lineage.
	consume(st2, 4, false)
	if st2.Stats().RetiredLineages != 1 {
		t.Errorf("new policy not applied forward: %+v", st2.Stats())
	}
	// Killed again before any periodic snapshot: window 4 was observed
	// under the new policy and must replay under it.
	want = st2.Restore().Summary()
	st2.Abandon()
	st3, err := Open(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Restore().Summary(); got != want {
		t.Errorf("second restart replayed under the old policy:\n%s\nvs:\n%s", got, want)
	}
}

// The state dir is exclusively locked: a second Open fails while the
// first store lives, and succeeds after Close.
func TestStateDirLocked(t *testing.T) {
	dir := t.TempDir()
	st1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Errorf("double open allowed: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	st2.Close()
}

// A history record that does not parse must refuse to open rather than
// silently replaying around it.
func TestCorruptHistoryRejected(t *testing.T) {
	days := worldEvents(t, 2)
	dir := t.TempDir()
	st1, err := Open(Config{Dir: dir, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, days, nil, st1)
	st1.Abandon() // killed

	path := historyFile(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Break the FIRST record's JSON structure.
	data[0] = 'X'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "corrupt history record") {
		t.Errorf("corrupt record accepted: %v", err)
	}
}

// History from the future (a gap against the snapshot) is corruption, not
// something to guess around.
func TestHistoryGapRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, historyDir), 0o755); err != nil {
		t.Fatal(err)
	}
	line := `{"seq":7,"window":0,"start":"2020-01-01T00:00:00Z","end":"2020-01-02T00:00:00Z","requests":0}` + "\n"
	if err := os.WriteFile(historyFile(dir, 7), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "history gap") {
		t.Errorf("gap accepted: %v", err)
	}
}

// A state dir is input from outside the process: a snapshot whose
// lineage list holds a null must be refused, not crash Open.
func TestNullLineageSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	snap := `{"version":1,"applied":0,"tracker":{"day":0,"lineages":[null]}}`
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "store: corrupt snapshot") {
		t.Errorf("null lineage accepted: %v", err)
	}
}

// FuzzOpen feeds arbitrary bytes to the store's durable decoders, as
// snapshot.json and as the first history record. A state dir is input
// from outside the process: Open must refuse it or return a store that
// closes cleanly, and never panic.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, snap, rec []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, historyDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(historyFile(dir, 0), rec, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Config{Dir: dir})
		if err != nil {
			return
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close after a clean Open: %v", err)
		}
	})
}
