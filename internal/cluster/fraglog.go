package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"smash/internal/store"
	"smash/internal/wire"
)

// FragLog is the aggregation tier's crash-recovery layer: an append-only,
// per-window log of every fragment the process has acknowledged, plus a
// frontier record of how far sealing has progressed. Layout, in one
// directory:
//
//	w<id>.frag     one file per pending window: accepted data fragments
//	               as length-prefixed wire frames (wire.AppendFrame),
//	               deleted once the window's seal has committed
//	final.frag     final markers, same framing, kept until Clean
//	frontier.json  {"nextSeal": N, "emitted": M}, rewritten atomically
//	               (store.WriteFileAtomic) at every seal
//
// Each append is one write syscall of a framed fragment (flushed,
// fsynced under Sync), torn tails are truncated at open, and replay is
// idempotent because the consumer — the aggregator's (node, window)
// dedupe and late-drop filters — already tolerates redelivery. Append is
// called from Submit before the fragment enters the inbox, so a 202 to a
// forwarder means the fragment survives kill -9 from that moment on.
type FragLog struct {
	dir  string
	sync bool

	mu     sync.Mutex
	files  map[int64]*os.File // open append handles, keyed by window id
	sizes  map[int64]int64    // on-disk bytes per window file
	finalF *os.File
	closed bool

	// replay inventory, captured (and torn-tail-healed) at open: live
	// appends land past these limits and reach the consumer through the
	// inbox instead.
	replayWindows []int64
	replayLimits  map[int64]int64
	finalLimit    int64

	frontier    Frontier
	hasFrontier bool

	ctrAppends  atomic.Int64
	ctrReplayed atomic.Int64
	ctrBytes    atomic.Int64
}

// Frontier records seal progress: the next window id to seal and the
// number of windows emitted so far. It is written before a window's
// effects reach the sinks, so after a crash it may run at most one window
// ahead of the durable sink — the reconcile rule aggregators apply at open.
type Frontier struct {
	NextSeal int64 `json:"nextSeal"`
	Emitted  int   `json:"emitted"`
}

const (
	fragSuffix   = ".frag"
	finalName    = "final" + fragSuffix
	frontierName = "frontier.json"
)

func fragFileName(w int64) string { return "w" + strconv.FormatInt(w, 10) + fragSuffix }

// OpenFragLog opens (creating if needed) the fragment log in dir, heals
// torn tails left by a crash and takes the replay inventory. With sync,
// every append is fsynced, surviving machine death as the store's
// history does under its Sync.
func OpenFragLog(dir string, sync bool) (*FragLog, error) {
	if dir == "" {
		return nil, fmt.Errorf("cluster: fragment log dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: fraglog: %w", err)
	}
	l := &FragLog{
		dir:          dir,
		sync:         sync,
		files:        make(map[int64]*os.File),
		sizes:        make(map[int64]int64),
		replayLimits: make(map[int64]int64),
	}
	if data, err := os.ReadFile(filepath.Join(dir, frontierName)); err == nil {
		if jerr := json.Unmarshal(data, &l.frontier); jerr != nil {
			return nil, fmt.Errorf("cluster: fraglog: frontier: %w", jerr)
		}
		l.hasFrontier = true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("cluster: fraglog: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: fraglog: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, fragSuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		good, err := healTornTail(path)
		if err != nil {
			return nil, fmt.Errorf("cluster: fraglog: %s: %w", name, err)
		}
		if name == finalName {
			l.finalLimit = good
			continue
		}
		w, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "w"), fragSuffix), 10, 64)
		if err != nil || !strings.HasPrefix(name, "w") {
			continue // not ours; leave it alone
		}
		l.replayWindows = append(l.replayWindows, w)
		l.replayLimits[w] = good
		l.sizes[w] = good
		l.ctrBytes.Add(good)
	}
	sort.Slice(l.replayWindows, func(i, j int) bool { return l.replayWindows[i] < l.replayWindows[j] })
	l.ctrBytes.Add(l.finalLimit)
	return l, nil
}

// healTornTail scans path's frames and truncates whatever trails the last
// intact one — a partial write from the previous process's death. Returns
// the healed size.
func healTornTail(path string) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	good, err := wire.ReadFrames(f, nil)
	if err != nil && !errors.Is(err, wire.ErrCorrupt) {
		// A garbage length is a torn header wearing random bytes: truncate
		// it like any other torn tail. Anything else is a real I/O error.
		return 0, err
	}
	info, serr := f.Stat()
	if serr != nil {
		return 0, serr
	}
	if good < info.Size() {
		if terr := f.Truncate(good); terr != nil {
			return 0, terr
		}
	}
	return good, nil
}

// Frontier returns the seal frontier restored at open, if one was found.
func (l *FragLog) Frontier() (Frontier, bool) { return l.frontier, l.hasFrontier }

// Append logs one fragment — data fragments to their window's file, final
// markers to final.frag — before the caller acknowledges it. Safe for
// concurrent use (Submit runs on HTTP handler goroutines).
func (l *FragLog) Append(frag *wire.Fragment) error {
	frame := wire.AppendFrame(nil, wire.EncodeFragment(frag))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("cluster: fraglog closed")
	}
	if !frag.Final && l.hasFrontier && frag.Window < l.frontier.NextSeal {
		// The window already sealed, so the live path will drop this
		// fragment as late; logging it would resurrect the window's
		// removed file and change a redo's merged set.
		return nil
	}
	var (
		f   *os.File
		err error
	)
	if frag.Final {
		if l.finalF == nil {
			l.finalF, err = os.OpenFile(filepath.Join(l.dir, finalName),
				os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		}
		f = l.finalF
	} else {
		f = l.files[frag.Window]
		if f == nil {
			f, err = os.OpenFile(filepath.Join(l.dir, fragFileName(frag.Window)),
				os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
			if err == nil {
				l.files[frag.Window] = f
			}
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: fraglog: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		return fmt.Errorf("cluster: fraglog append: %w", err)
	}
	if l.sync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("cluster: fraglog sync: %w", err)
		}
	}
	if !frag.Final {
		l.sizes[frag.Window] += int64(len(frame))
	}
	l.ctrAppends.Add(1)
	l.ctrBytes.Add(int64(len(frame)))
	return nil
}

// Replay decodes every fragment captured at open — pending windows in
// ascending window order, then the final markers, matching live arrival
// order — and hands each to fn. Content appended after open is excluded
// (it reaches the consumer through the live path).
func (l *FragLog) Replay(fn func(*wire.Fragment) error) error {
	decode := func(payload []byte) error {
		frag, err := wire.DecodeFragment(payload)
		if err != nil {
			return err
		}
		l.ctrReplayed.Add(1)
		return fn(frag)
	}
	for _, w := range l.replayWindows {
		if err := l.replayFile(filepath.Join(l.dir, fragFileName(w)), l.replayLimits[w], decode); err != nil {
			return fmt.Errorf("cluster: fraglog replay w%d: %w", w, err)
		}
	}
	if l.finalLimit > 0 {
		if err := l.replayFile(filepath.Join(l.dir, finalName), l.finalLimit, decode); err != nil {
			return fmt.Errorf("cluster: fraglog replay finals: %w", err)
		}
	}
	return nil
}

func (l *FragLog) replayFile(path string, limit int64, fn func([]byte) error) error {
	if limit == 0 {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // removed by RemoveBelow between open and replay
		}
		return err
	}
	defer f.Close()
	_, err = wire.ReadFrames(io.LimitReader(f, limit), fn)
	return err
}

// Commit durably records the seal frontier: window nextSeal-1 is being
// (or has been) sealed as emission number emitted-1. Written atomically
// and always fsynced — the frontier is the recovery protocol's anchor and
// is one small file per window, so the fsync is cheap relative to a seal.
func (l *FragLog) Commit(nextSeal int64, emitted int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("cluster: fraglog closed")
	}
	l.frontier = Frontier{NextSeal: nextSeal, Emitted: emitted}
	l.hasFrontier = true
	data, err := json.Marshal(&l.frontier)
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(filepath.Join(l.dir, frontierName), data, true); err != nil {
		return fmt.Errorf("cluster: fraglog frontier: %w", err)
	}
	if err := store.SyncDir(l.dir); err != nil {
		return fmt.Errorf("cluster: fraglog frontier: %w", err)
	}
	return nil
}

// Remove garbage-collects window w's file after its seal has committed.
func (l *FragLog) Remove(w int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := l.files[w]; f != nil {
		f.Close()
		delete(l.files, w)
	}
	os.Remove(filepath.Join(l.dir, fragFileName(w)))
	l.ctrBytes.Add(-l.sizes[w])
	delete(l.sizes, w)
	delete(l.replayLimits, w)
}

// RemoveBelow deletes files for windows sealed before the frontier —
// stale leftovers of a crash that landed between a seal's sink commit and
// its Remove. Call before Replay.
func (l *FragLog) RemoveBelow(nextSeal int64) {
	kept := l.replayWindows[:0]
	for _, w := range l.replayWindows {
		if w < nextSeal {
			l.Remove(w)
			continue
		}
		kept = append(kept, w)
	}
	l.replayWindows = kept
}

// Clean removes every log artifact — a run that completed cleanly leaves
// an empty directory, so the next run starts fresh.
func (l *FragLog) Clean() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked()
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if name == frontierName || strings.HasSuffix(name, fragSuffix) || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	l.ctrBytes.Store(0)
	return firstErr
}

// Close drops every open file handle without flushing pending state —
// alongside Aggregator.Abandon it is the kill -9 simulator; the on-disk
// bytes stay exactly as the last append left them.
func (l *FragLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked()
}

func (l *FragLog) closeLocked() {
	for w, f := range l.files {
		f.Close()
		delete(l.files, w)
	}
	if l.finalF != nil {
		l.finalF.Close()
		l.finalF = nil
	}
	l.closed = true
}

// FragLogStats is a live snapshot of the log's counters.
type FragLogStats struct {
	// Appends counts fragments logged this run; Replayed counts fragments
	// restored from the previous process's log at startup.
	Appends  int64 `json:"appends"`
	Replayed int64 `json:"replayed"`
	// Bytes is the current on-disk size of the log.
	Bytes int64 `json:"bytes"`
}

// Stats returns a live snapshot of the log's counters.
func (l *FragLog) Stats() FragLogStats {
	return FragLogStats{
		Appends:  l.ctrAppends.Load(),
		Replayed: l.ctrReplayed.Load(),
		Bytes:    l.ctrBytes.Load(),
	}
}
