// History is the store's log: one durable Record per applied window. The
// records past the snapshot are what Open replays; the older ones stay so
// the HTTP API can answer time-range queries ("which campaigns were active
// last Tuesday"), per-lineage timelines and SSE delta replays long after
// the window was detected.
//
// On-disk layout (under Config.Dir):
//
//	history/
//	  000000000000.json   Record for global window seq 0
//	  000000000001.json   ...one file per window, written tmp + rename
//
// A window is durable once its file is renamed into place (and, under
// Config.Sync, the file and the directory are fsynced); a kill mid-write
// leaves only a .tmp file, which Open removes. The in-memory index (a
// contiguous slice of Records ascending by seq) is rebuilt from the
// directory at Open and serves every query without touching disk.
//
// Retention (Config.RetainWindows / Config.RetainAge) garbage-collects
// history from the oldest window forward, deleting files and trimming the
// in-memory index, so a months-long run stays bounded on disk and in
// memory — the production companion to tracker retirement. Retention never
// deletes the log: before it drops a record the snapshot does not cover
// yet, it snapshots.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const historyDir = "history"

// historyName names one window's history file; the fixed width makes a
// directory listing's name order the seq order.
func historyName(seq int) string { return fmt.Sprintf("%012d.json", seq) }

// historyFile is one window's history file under state dir dir.
func historyFile(dir string, seq int) string {
	return filepath.Join(dir, historyDir, historyName(seq))
}

// HistoryStats summarizes the history log and its live subscriptions.
type HistoryStats struct {
	// Windows is the number of retained history records; FirstSeq and
	// LastSeq bound their global window sequence range (-1 when empty).
	Windows  int `json:"windows"`
	FirstSeq int `json:"firstSeq"`
	LastSeq  int `json:"lastSeq"`
	// Bytes is the history log's on-disk footprint (0 when memory-only).
	Bytes int64 `json:"bytes"`
	// GCRuns counts retention passes that removed at least one window.
	GCRuns int64 `json:"gcRuns"`
	// Subscribers is the number of live delta subscriptions; Dropped
	// counts subscriptions closed because the consumer fell behind.
	Subscribers int   `json:"subscribers"`
	Dropped     int64 `json:"dropped"`
}

// DiskUsage reports the store's on-disk footprint by component. The
// snapshot size is stat'ed at call time; history bytes are tracked
// incrementally. All zero for a memory-only store.
type DiskUsage struct {
	SnapshotBytes int64 `json:"snapshotBytes"`
	// WALBytes is the part of HistoryBytes the snapshot does not cover
	// yet — what a restart would replay. It drops to 0 at each snapshot.
	WALBytes     int64 `json:"walBytes"`
	HistoryBytes int64 `json:"historyBytes"`
}

// DiskUsage returns the current on-disk footprint.
func (s *Store) DiskUsage() DiskUsage {
	s.mu.Lock()
	defer s.mu.Unlock()
	var du DiskUsage
	if s.cfg.Dir == "" {
		return du
	}
	if fi, err := os.Stat(filepath.Join(s.cfg.Dir, snapshotFile)); err == nil {
		du.SnapshotBytes = fi.Size()
	}
	for i := len(s.hist) - 1; i >= 0 && s.hist[i].Seq >= s.snapApplied; i-- {
		du.WALBytes += s.histSizes[i]
	}
	du.HistoryBytes = s.histBytes
	return du
}

// HistoryStats returns the history log's live summary.
func (s *Store) HistoryStats() HistoryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := HistoryStats{
		Windows:     len(s.hist),
		FirstSeq:    -1,
		LastSeq:     -1,
		Bytes:       s.histBytes,
		GCRuns:      s.histGCs,
		Subscribers: len(s.subs),
		Dropped:     s.subsDropped,
	}
	if len(s.hist) > 0 {
		hs.FirstSeq = s.hist[0].Seq
		hs.LastSeq = s.hist[len(s.hist)-1].Seq
	}
	return hs
}

// History returns the retained window records with Seq >= fromSeq,
// ascending. The records are shared and must be treated as read-only; the
// slice is the caller's.
func (s *Store) History(fromSeq int) []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.hist) == 0 {
		return nil
	}
	i := sort.Search(len(s.hist), func(i int) bool { return s.hist[i].Seq >= fromSeq })
	if i >= len(s.hist) {
		return nil
	}
	return append([]*Record(nil), s.hist[i:]...)
}

// loadHistory replays the history records at or past the snapshot into
// the mirror and rebuilds the in-memory index. The replayed records must
// run on from the snapshot with no gap. Of the older records only the
// contiguous run that meets them is kept (retention deletes from the
// front, so a gap means manual tampering or a lost file — everything
// older than the gap is unusable for range queries and is dropped, files
// included). Caller is Open, before the store is shared.
func (s *Store) loadHistory() error {
	dir := filepath.Join(s.cfg.Dir, historyDir)
	entries, err := os.ReadDir(dir) // sorted by name, hence by seq
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type histEntry struct {
		size int64
		rec  *Record
	}
	var loaded []histEntry
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A write the process died in: that window never became
			// durable.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(name, ".json"))
		if e.IsDir() || err != nil || seq < 0 || name != historyName(seq) {
			continue // foreign file; leave it alone
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("store: corrupt history record %s: %w", name, err)
		}
		if rec.Seq != seq {
			return fmt.Errorf("store: history file %s holds seq %d", name, rec.Seq)
		}
		loaded = append(loaded, histEntry{size: int64(len(data)), rec: &rec})
	}
	replay := sort.Search(len(loaded), func(i int) bool { return loaded[i].rec.Seq >= s.applied })
	for _, e := range loaded[replay:] {
		if e.rec.Seq != s.applied {
			return fmt.Errorf("store: history gap: record seq %d, want %d", e.rec.Seq, s.applied)
		}
		s.apply(e.rec)
		s.replayed++
	}
	first := replay
	for first > 0 && loaded[first-1].rec.Seq == s.snapApplied-(replay-first)-1 {
		first--
	}
	for _, e := range loaded[:first] {
		os.Remove(historyFile(s.cfg.Dir, e.rec.Seq))
	}
	for _, e := range loaded[first:] {
		s.hist = append(s.hist, e.rec)
		s.histSizes = append(s.histSizes, e.size)
		s.histBytes += e.size
	}
	return nil
}

// appendHistory appends one record to the history index and, while the
// store is durable, writes its file. A failed write turns persistence off
// for the rest of the process — the files already on disk stay the log a
// restart recovers from, and the error surfaces through the engine — but
// the record still joins the index, so serving stays in step with the
// engine. Caller holds mu.
func (s *Store) appendHistory(rec *Record) error {
	var size int64
	var err error
	if s.durable {
		if size, err = s.writeHistory(rec); err != nil {
			s.durable = false
		}
	}
	s.hist = append(s.hist, rec)
	s.histSizes = append(s.histSizes, size)
	s.histBytes += size
	return err
}

// writeHistory writes one record's file with tmp + rename, fsyncing the
// file and the history directory under Config.Sync, and returns its size.
func (s *Store) writeHistory(rec *Record) (int64, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	data = append(data, '\n')
	if err := WriteFileAtomic(historyFile(s.cfg.Dir, rec.Seq), data, s.cfg.Sync); err != nil {
		return 0, fmt.Errorf("store: history: %w", err)
	}
	if s.cfg.Sync {
		if err := SyncDir(filepath.Join(s.cfg.Dir, historyDir)); err != nil {
			return 0, fmt.Errorf("store: history: %w", err)
		}
	}
	return int64(len(data)), nil
}

// dropHistory removes the oldest n history records from the index, and
// their files while the store is durable. Caller holds mu.
func (s *Store) dropHistory(n int) {
	for i := 0; i < n; i++ {
		if s.durable {
			os.Remove(historyFile(s.cfg.Dir, s.hist[i].Seq))
		}
		s.histBytes -= s.histSizes[i]
	}
	s.hist = s.hist[:copy(s.hist, s.hist[n:])]
	s.histSizes = s.histSizes[:copy(s.histSizes, s.histSizes[n:])]
}

// retain applies the retention policy, GCing history from the oldest
// window forward: RetainWindows caps the retained count, RetainAge drops
// windows whose End has fallen RetainAge behind the newest window's End
// (event time, not wall clock — a replayed historical trace retains the
// same windows a live run would have). The newest window is never
// dropped. Records the snapshot does not cover yet are the log, so a
// durable store snapshots before dropping one; if that fails, persistence
// stops and only memory is trimmed. Caller holds mu.
func (s *Store) retain() error {
	n := len(s.hist)
	if n == 0 {
		return nil
	}
	drop := 0
	if rw := s.cfg.RetainWindows; rw > 0 && n > rw {
		drop = n - rw
	}
	if ra := s.cfg.RetainAge; ra > 0 {
		cut := s.hist[n-1].End.Add(-ra)
		for drop < n-1 && !s.hist[drop].End.After(cut) {
			drop++
		}
	}
	if drop == 0 {
		return nil
	}
	var err error
	if s.durable && s.hist[drop-1].Seq >= s.snapApplied {
		if err = s.snapshotLocked(); err != nil {
			s.durable = false
		}
	}
	s.dropHistory(drop)
	s.histGCs++
	return err
}

// DeltaSub is one live delta subscription: every Record the store applies
// after the subscription is delivered on C, in window order. A subscriber
// that falls more than the channel buffer behind is dropped — C is closed
// and the consumer must resubscribe from its last seen event ID (the SSE
// Last-Event-ID resume path), which replays the gap from history.
type DeltaSub struct {
	// C delivers applied window records. Closed when the subscriber is
	// dropped, the subscription is Closed, or the store closes.
	C chan *Record

	s      *Store
	closed bool
}

// subBuffer is the per-subscriber channel capacity: enough to ride out a
// burst of windows sealing back-to-back, small enough that an abandoned
// consumer is dropped (and its memory freed) quickly.
const subBuffer = 64

// SubscribeDeltas atomically returns the retained records with
// Seq >= fromSeq and a live subscription for everything after them —
// there is no window in which a record can fall between the backlog and
// the channel. Close the subscription when done.
func (s *Store) SubscribeDeltas(fromSeq int) ([]*Record, *DeltaSub) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var backlog []*Record
	if len(s.hist) > 0 {
		i := sort.Search(len(s.hist), func(i int) bool { return s.hist[i].Seq >= fromSeq })
		backlog = append([]*Record(nil), s.hist[i:]...)
	}
	sub := &DeltaSub{C: make(chan *Record, subBuffer), s: s}
	if s.subs == nil {
		s.subs = make(map[*DeltaSub]struct{})
	}
	s.subs[sub] = struct{}{}
	return backlog, sub
}

// Close cancels the subscription. Safe to call more than once and after
// the subscriber was dropped.
func (d *DeltaSub) Close() {
	if d == nil || d.s == nil {
		return
	}
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	d.s.removeSub(d)
}

// removeSub unregisters and closes one subscription. Caller holds mu.
func (s *Store) removeSub(d *DeltaSub) {
	if d.closed {
		return
	}
	d.closed = true
	delete(s.subs, d)
	close(d.C)
}

// publish fans one applied record out to every subscriber. A full channel
// means the consumer is stalled; it is dropped (channel closed, Dropped
// counted) rather than blocking the engine's emit path — the consumer
// resumes losslessly from history via its last event ID. Caller holds mu.
func (s *Store) publish(rec *Record) {
	for d := range s.subs {
		select {
		case d.C <- rec:
		default:
			s.removeSub(d)
			s.subsDropped++
		}
	}
}

// closeSubs drops every subscriber — the store is closing (or simulating
// process death), so live feeds end. Caller holds mu.
func (s *Store) closeSubs() {
	for d := range s.subs {
		s.removeSub(d)
	}
}
