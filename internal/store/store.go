// Package store is smashd's durability layer: a campaign-state store that
// makes cross-window lineage tracking survive process restarts and serves
// as the read model for the HTTP API (internal/serve).
//
// The store consumes the same per-window results the CLI prints — it plugs
// into internal/stream as a stream.Sink — and persists them as a snapshot
// plus a log of per-window records:
//
//	state-dir/
//	  snapshot.json   full tracker state + cumulative counters, written
//	                  atomically (tmp + rename, fsynced) every
//	                  SnapshotEvery windows, before retention would drop a
//	                  record it does not cover, and on Close
//	  history/        one JSON Record file per window (see history.go):
//	                  the store's only log, written tmp + rename per
//	                  window (file and directory fsynced when Sync is set)
//	  lock            flock held for the store's lifetime, so a second
//	                  process cannot corrupt the directory; released by
//	                  the kernel on process death
//
// Every record carries a global monotonic sequence number (the tracker's
// window clock), and the snapshot records how many windows it has applied.
// Open replays the history records with seq >= applied, so a crash at any
// point double-applies nothing: recovery is idempotent. A write the kill
// interrupted leaves only a .tmp file, which Open removes — that window
// was never durable.
//
// Restore rebuilds a tracker.Tracker that is byte-identical — Summary and
// all future Observe decisions — to the tracker of a process that never
// died, because the log records exactly the ordered campaign sets the
// original tracker observed and tracker.Observe is deterministic.
//
// The store also keeps an in-memory mirror tracker fed by the same records
// (live and replayed), guarded by a mutex, so HTTP handlers can query
// lineage state concurrently while the engine's own tracker keeps running
// lock-free on the hot path.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smash/internal/campaign"
	"smash/internal/core"
	"smash/internal/stream"
	"smash/internal/tracker"
)

const (
	snapshotFile = "snapshot.json"
	lockFile     = "lock"
	// formatVersion guards the on-disk schema.
	formatVersion = 1
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the state directory. Empty means memory-only: the store still
	// mirrors state for serving, but persists nothing.
	Dir string
	// SnapshotEvery is the number of windows between snapshots. Default 64.
	SnapshotEvery int
	// Sync fsyncs every window's history file and the history directory.
	// Without it a record survives process death (the file write has
	// happened) but not necessarily OS/machine death.
	Sync bool
	// NewTracker builds the mirror (and Restore) trackers, carrying policy
	// knobs like RetireAfter. Default tracker.New.
	NewTracker func() *tracker.Tracker
	// RetainWindows caps the number of windows kept in the history log
	// (see history.go); 0 keeps everything.
	RetainWindows int
	// RetainAge drops history windows whose End has fallen more than this
	// behind the newest window's End (event time); 0 keeps everything.
	RetainAge time.Duration
}

// Record is one window's durable state change: everything needed to replay
// the tracker's Observe call and to serve /v1/windows/latest. The JSON
// shape is stable; one Record per history file.
type Record struct {
	// Seq is the global window sequence — the tracker's window clock. It
	// keeps counting across restarts, unlike Window.
	Seq int `json:"seq"`
	// Window is the emitting engine's per-run window Seq.
	Window int `json:"window"`
	// Start and End bound the window interval.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Requests counts indexed requests in the window.
	Requests int `json:"requests"`
	// Aborted marks a non-empty window emitted without a report (hard
	// shutdown mid-detection).
	Aborted bool `json:"aborted,omitempty"`
	// Campaigns are the window's campaigns in tracker observation order
	// (multi-client first, then single-client).
	Campaigns []campaign.Campaign `json:"campaigns,omitempty"`
	// Deltas are the lineage transitions the tracker derived.
	Deltas []stream.Delta `json:"deltas,omitempty"`
}

// Counters are the store's cumulative activity counters. They span
// restarts: replayed windows count exactly once.
type Counters struct {
	// Windows counts applied windows; EmptyWindows those with no requests.
	Windows      int `json:"windows"`
	EmptyWindows int `json:"emptyWindows"`
	// Requests sums window request counts.
	Requests int `json:"requests"`
	// Campaigns sums per-window campaign counts.
	Campaigns int `json:"campaigns"`
	// Appeared/Persisted/Rotated/Retired count deltas by kind.
	Appeared  int `json:"appeared"`
	Persisted int `json:"persisted"`
	Rotated   int `json:"rotated"`
	Retired   int `json:"retired"`
}

// Stats is the store's live summary, served by /v1/stats.
type Stats struct {
	Counters
	// Lineages and RetiredLineages count the mirror tracker's state.
	Lineages        int `json:"lineages"`
	RetiredLineages int `json:"retiredLineages"`
	// Replayed is the number of history records replayed past the
	// snapshot when the store opened (0 after a clean shutdown, which
	// snapshots on Close).
	Replayed int `json:"replayed"`
	// Restored is the number of windows recovered at open from snapshot
	// plus replay together.
	Restored int `json:"restored"`
}

// snapshot is the on-disk snapshot schema.
type snapshot struct {
	Version    int           `json:"version"`
	Applied    int           `json:"applied"`
	Counters   Counters      `json:"counters"`
	LastWindow *Record       `json:"lastWindow,omitempty"`
	Tracker    tracker.State `json:"tracker"`
}

// Store is a durable campaign-state store. It implements stream.Sink; all
// methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu       sync.Mutex
	mirror   *tracker.Tracker
	ctr      Counters
	last     *Record
	applied  int // windows applied == mirror.Day()
	replayed int
	restored int
	// durable is set while the store persists: it has a state dir and no
	// write has failed. snapApplied is the applied count snapshot.json
	// covers; the history records at or past it are what a restart
	// replays.
	durable     bool
	snapApplied int
	lock        *os.File // flock guarding the state dir against a second process

	// History log + live delta subscriptions (see history.go). hist is
	// contiguous ascending by Seq and ends at applied-1; histSizes holds
	// each record's on-disk size so retention can account bytes without
	// re-statting.
	hist        []*Record
	histSizes   []int64
	histBytes   int64
	histGCs     int64
	subs        map[*DeltaSub]struct{}
	subsDropped int64
}

// Open loads (or creates) the store under cfg.Dir, replaying the snapshot
// and the history records past it into the in-memory mirror. With an
// empty Dir the store is memory-only.
func Open(cfg Config) (*Store, error) {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 64
	}
	if cfg.NewTracker == nil {
		cfg.NewTracker = tracker.New
	}
	s := &Store{cfg: cfg, mirror: cfg.NewTracker()}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, historyDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	s.durable = true
	if err := s.recover(); err != nil {
		s.releaseLock()
		return nil, err
	}
	return s, nil
}

// recover loads the snapshot, replays the history log past it, applies
// retention, and snapshots the result under the configured policy. Caller
// is Open, before the store is shared.
func (s *Store) recover() error {
	if err := s.loadSnapshot(); err != nil {
		return err
	}
	if err := s.loadHistory(); err != nil {
		return err
	}
	if err := s.retain(); err != nil {
		return err
	}
	// Policy knobs (RetireAfter, MinClientOverlap) switch to the current
	// configuration only once recovery is complete: recorded history must
	// replay under the policy it was observed with — retroactively
	// retiring a lineage mid-replay would contradict the deltas already in
	// the log — while future windows follow the operator's new settings.
	fresh := s.cfg.NewTracker()
	s.mirror.MinClientOverlap = fresh.MinClientOverlap
	s.mirror.RetireAfter = fresh.RetireAfter
	s.restored = s.applied
	// The snapshot records the policy the windows after this open are
	// observed under, so a crash before the next periodic snapshot replays
	// them under that policy too.
	return s.snapshotLocked()
}

// acquireLock flocks DIR/lock so a second process cannot corrupt the
// snapshot and history. The kernel releases the lock on process death, so
// a kill -9'd daemon never wedges its state dir.
func (s *Store) acquireLock() error {
	f, err := os.OpenFile(filepath.Join(s.cfg.Dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := flock(f); err != nil {
		f.Close()
		return fmt.Errorf("store: state dir %s is in use by another process: %w", s.cfg.Dir, err)
	}
	s.lock = f
	return nil
}

// releaseLock drops the state-dir lock (no-op when memory-only).
func (s *Store) releaseLock() {
	if s.lock != nil {
		s.lock.Close()
		s.lock = nil
	}
}

// loadSnapshot restores mirror, counters and applied count from
// snapshot.json, if it exists.
func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: corrupt snapshot: %w", err)
	}
	if snap.Version != formatVersion {
		return fmt.Errorf("store: snapshot format v%d, want v%d", snap.Version, formatVersion)
	}
	if snap.Applied < 0 || snap.Tracker.Day != snap.Applied {
		return fmt.Errorf("store: corrupt snapshot: tracker day %d, applied %d", snap.Tracker.Day, snap.Applied)
	}
	for i, l := range snap.Tracker.Lineages {
		if l == nil || l.ID != i {
			return fmt.Errorf("store: corrupt snapshot: lineage %d", i)
		}
	}
	s.mirror = tracker.FromState(snap.Tracker)
	s.ctr = snap.Counters
	s.last = snap.LastWindow
	s.applied = snap.Applied
	s.snapApplied = snap.Applied
	return nil
}

// apply folds one record into the mirror tracker and counters. Caller
// holds mu (or is Open, before the store is shared).
func (s *Store) apply(rec *Record) {
	s.mirror.Observe(&core.Report{Campaigns: rec.Campaigns})
	s.ctr.Windows++
	if rec.Requests == 0 {
		s.ctr.EmptyWindows++
	}
	s.ctr.Requests += rec.Requests
	s.ctr.Campaigns += len(rec.Campaigns)
	for i := range rec.Deltas {
		// Classify by KindName, the field that survives JSON: Delta.Kind
		// is json:"-", so replayed records carry only the name.
		switch rec.Deltas[i].KindName {
		case stream.Appear.String():
			s.ctr.Appeared++
		case stream.Persist.String():
			s.ctr.Persisted++
		case stream.Rotate.String():
			s.ctr.Rotated++
		case stream.Retire.String():
			s.ctr.Retired++
		}
	}
	s.last = rec
	s.applied++
}

// SinkName implements stream.NamedSink: store appends show up as the
// "store" span and sink-latency series.
func (s *Store) SinkName() string { return "store" }

// Consume implements stream.Sink: it records one emitted window — the
// in-memory mirror first (so the read model and the seq clock stay in
// lockstep with the engine even when persistence fails), then its history
// file — publishes it, applies retention, and snapshots every
// SnapshotEvery windows. A window visible in the mirror is therefore
// durable only once Consume has returned nil.
func (s *Store) Consume(w *stream.WindowResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := &Record{
		Seq:      s.applied,
		Window:   w.Seq,
		Start:    w.Start,
		End:      w.End,
		Requests: w.Requests,
		Aborted:  w.Report == nil && w.Requests > 0,
		Deltas:   w.Deltas,
	}
	if w.Report != nil {
		rec.Campaigns = w.Report.AllCampaigns()
	}
	s.apply(rec)
	err := s.appendHistory(rec)
	// Subscribers see the record only once it is in history, so
	// Last-Event-ID resume never skips.
	s.publish(rec)
	if rerr := s.retain(); err == nil {
		err = rerr
	}
	if s.durable && s.applied-s.snapApplied >= s.cfg.SnapshotEvery {
		err = s.snapshotLocked()
	}
	return err
}

// Snapshot forces a snapshot now. No-op when memory-only.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.durable {
		return nil
	}
	return s.snapshotLocked()
}

// snapshotLocked writes snapshot.json atomically and durably. Caller holds
// mu.
func (s *Store) snapshotLocked() error {
	snap := snapshot{
		Version:    formatVersion,
		Applied:    s.applied,
		Counters:   s.ctr,
		LastWindow: s.last,
		Tracker:    s.mirror.State(),
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(s.cfg.Dir, snapshotFile), data, true); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The rename must be durable before retention deletes the history it
	// now covers: without the directory fsync a machine crash could
	// surface the OLD snapshot next to a log missing its records.
	if err := SyncDir(s.cfg.Dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.snapApplied = s.applied
	return nil
}

// Close snapshots and releases the state directory. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.releaseLock()
	s.closeSubs()
	if !s.durable {
		return nil
	}
	s.durable = false
	return s.snapshotLocked()
}

// Abandon simulates process death for tests and benchmarks: the state-dir
// lock is dropped with no final snapshot — exactly the on-disk state a
// kill -9 leaves, but with the kernel-held flock released so the same
// process can reopen the directory. The store must not be used afterwards.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSubs()
	s.durable = false
	s.releaseLock()
}

// Restore returns a fresh tracker carrying the store's full restored
// state — the tracker a resuming engine should continue with. The returned
// tracker shares nothing with the store's mirror: the engine may mutate it
// freely while the store keeps mirroring via Consume.
func (s *Store) Restore() *tracker.Tracker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tracker.FromState(s.mirror.State())
}

// Stats returns the store's live summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Counters:        s.ctr,
		Lineages:        len(s.mirror.Lineages()),
		RetiredLineages: s.mirror.Retired(),
		Replayed:        s.replayed,
		Restored:        s.restored,
	}
}

// LineageSummaries returns scalar-only copies of all lineages ordered by
// ID — no member maps, so a polling list endpoint costs O(lineages), not
// O(members), inside the store lock. Use Lineage for one lineage's full
// member history.
func (s *Store) LineageSummaries() []*tracker.Lineage {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.mirror.Lineages()
	out := make([]*tracker.Lineage, len(all))
	for i, l := range all {
		c := *l
		c.Servers, c.Clients = nil, nil
		out[i] = &c
	}
	return out
}

// LineagesWithServer returns the IDs of lineages whose server pool
// contains server. Retired lineages never match: their member maps were
// pruned at retirement.
func (s *Store) LineagesWithServer(server string) map[int]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]bool)
	for _, l := range s.mirror.Lineages() {
		if l.Servers[server] > 0 {
			out[l.ID] = true
		}
	}
	return out
}

// Lineage returns a deep copy of one lineage by ID, or nil. Retired
// lineages have no member maps (pruned at retirement); scalar totals
// remain.
func (s *Store) Lineage(id int) *tracker.Lineage {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.mirror.Lineages()
	if id < 0 || id >= len(all) {
		return nil
	}
	return all[id].Clone()
}

// LastWindow returns the most recently applied window record, or nil. The
// record must be treated as read-only.
func (s *Store) LastWindow() *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Applied returns the number of windows applied over the store's lifetime
// (restored plus consumed).
func (s *Store) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}
