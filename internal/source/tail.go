package source

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"smash/internal/store"
	"smash/internal/stream"
	"smash/internal/trace"
)

// maxMarks bounds the in-memory commit-mark list. When exceeded, every
// other mark is dropped — checkpoints get coarser (more conservative, an
// earlier offset), never wrong.
const maxMarks = 4096

// TailerConfig configures a file-tailing source.
type TailerConfig struct {
	// Path is the log file to follow.
	Path string
	// Format parses the file's lines.
	Format Format
	// Counters receives activity counts (nil disables accounting).
	Counters *Counters
	// Checkpoint, when non-empty, is the file persisting byte-offset
	// checkpoints (atomic tmp+rename). A Tailer opened with an existing
	// checkpoint resumes from it; see Resume.
	Checkpoint string
	// Poll is the sleep between end-of-file probes (default 200ms).
	Poll time.Duration
}

// Tailer is a stream.Source that follows a live log file the way `tail
// -F` does, plus checkpointing:
//
//   - Growth is picked up by polling after EOF; a consumer parked in
//     ReadBatch wakes as soon as the writer appends a complete line.
//   - Rotation (rename + recreate) is detected by comparing the open
//     file's identity against a fresh stat of Path; the old file is
//     drained to EOF — including a final unterminated line — before the
//     new one is opened at offset zero.
//   - Truncation (copytruncate rotation) is detected by the file
//     shrinking below the read position; reading restarts at zero.
//   - After every committed window the safe byte offset is persisted to
//     Checkpoint, so a restarted Tailer skips what the previous process
//     already applied durably.
//
// The checkpoint offset is deliberately conservative: Commit(end) only
// advances it past bytes whose every event carries a timestamp strictly
// before end — i.e. events the engine has either applied in a sealed
// window or dropped as late. Bytes past the offset are re-read on
// resume; the caller is expected to wrap the Tailer in SkipBelow with
// the store's last applied window end, which drops the re-read
// already-applied prefix. Together the two give exact-once delivery for
// tumbling windows across kill -9 (see DESIGN.md, "Sources").
//
// ReadBatch, Stop and Commit may be called from different goroutines (one
// reader at a time).
type Tailer struct {
	cfg TailerConfig

	f       *os.File
	filePos int64  // offset of the next byte f.Read returns
	pending []byte // read but not yet consumed (tail may be a partial line)
	readBuf []byte
	backlog bool // draining the rotated-away file found via checkpoint identity
	// switchPending: rotation detected and the old file drained; flush
	// its final partial line, then open Path fresh.
	switchPending bool

	stopped atomic.Bool
	stopCh  chan struct{}

	mu     sync.Mutex
	gen    int
	genIDs map[int]fileID
	marks  []mark

	resumePath string // what Resume reports
	resumeOff  int64
}

// mark records that every byte of generation gen up to offset off
// belongs to an event with timestamp <= tMax (unix nanos). Marks carry
// non-decreasing tMax in append order.
type mark struct {
	gen  int
	tMax int64
	off  int64
}

// checkpoint is the JSON shape persisted to TailerConfig.Checkpoint.
type checkpoint struct {
	Version int    `json:"version"`
	Path    string `json:"path"`
	Dev     uint64 `json:"dev,omitempty"`
	Ino     uint64 `json:"ino,omitempty"`
	HasID   bool   `json:"hasId"`
	Offset  int64  `json:"offset"`
}

// NewTailer opens Path and, when a checkpoint exists, positions the
// read at the checkpointed offset — in Path itself when the identity
// matches, or in the rotated-away file (found by scanning Path's
// directory for the checkpointed inode), which is drained before
// following Path.
func NewTailer(cfg TailerConfig) (*Tailer, error) {
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.Format == nil {
		return nil, fmt.Errorf("source: tailer needs a Format")
	}
	t := &Tailer{
		cfg:     cfg,
		readBuf: make([]byte, 32*1024),
		stopCh:  make(chan struct{}),
		genIDs:  make(map[int]fileID),
	}
	ck := loadCheckpoint(cfg.Checkpoint)
	openPath := cfg.Path
	if ck != nil && ck.HasID {
		ckID := fileID{Dev: ck.Dev, Ino: ck.Ino, OK: true}
		if cur, err := statID(cfg.Path); err == nil && cur != ckID {
			// Path was rotated while we were down; the checkpointed file may
			// still be nearby under its rotated name.
			if old := findByID(filepath.Dir(cfg.Path), ckID, cfg.Path); old != "" {
				openPath = old
				t.backlog = true
			} else {
				ck = nil
			}
		}
	}
	f, err := os.Open(openPath)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	t.f = f
	id, _ := fileIDFor(f)
	t.genIDs[t.gen] = id
	if ck != nil {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("source: %w", err)
		}
		match := !ck.HasID || (id.OK && id.Dev == ck.Dev && id.Ino == ck.Ino)
		if match && ck.Offset <= fi.Size() {
			if _, err := f.Seek(ck.Offset, io.SeekStart); err != nil {
				f.Close()
				return nil, fmt.Errorf("source: %w", err)
			}
			t.filePos = ck.Offset
			t.resumePath, t.resumeOff = openPath, ck.Offset
		} else if t.backlog {
			// Identity scan found the file but it shrank below the
			// checkpoint; drain it from the top.
			t.resumePath, t.resumeOff = openPath, 0
		}
	}
	return t, nil
}

// Resume reports where the Tailer resumed from a checkpoint: the file
// actually opened (Path, or the rotated-away file found by identity)
// and the starting byte offset. ok is false on a fresh start.
func (t *Tailer) Resume() (path string, offset int64, ok bool) {
	return t.resumePath, t.resumeOff, t.resumePath != ""
}

// Stop makes ReadBatch finish the file — drain to the current EOF,
// including a final unterminated line — and then return io.EOF instead of
// following further growth. Safe to call concurrently with Read and
// more than once.
func (t *Tailer) Stop() {
	if t.stopped.CompareAndSwap(false, true) {
		close(t.stopCh)
	}
}

// ReadBatch blocks until the file has a complete new well-formed line,
// then fills dst with that request and those of every further complete
// line already read in, without reading more. Malformed lines are counted
// and skipped. After Stop it drains to EOF and returns io.EOF.
func (t *Tailer) ReadBatch(dst []trace.Request) (int, error) {
	req, err := t.read()
	if err != nil {
		return 0, err
	}
	dst[0] = req
	n := 1
	for n < len(dst) {
		line, ok := t.nextLine()
		if !ok {
			break
		}
		if req, ok := t.consume(line); ok {
			dst[n] = req
			n++
		}
	}
	return n, nil
}

// read returns the next well-formed request, blocking while the file has
// no complete new line.
func (t *Tailer) read() (trace.Request, error) {
	for {
		if line, ok := t.nextLine(); ok {
			if req, ok := t.consume(line); ok {
				return req, nil
			}
			continue
		}
		n, err := t.fill()
		if n > 0 {
			continue
		}
		if err != nil && err != io.EOF {
			return trace.Request{}, fmt.Errorf("source: %s: %w", t.cfg.Path, err)
		}
		// At EOF with no complete line buffered.
		if t.backlog || t.switchPending {
			if req, ok := t.flushPartial(); ok {
				return req, nil
			}
			t.switchPending = false
			if err := t.switchToPath(); err != nil {
				return trace.Request{}, err
			}
			continue
		}
		if t.stopped.Load() {
			if req, ok := t.flushPartial(); ok {
				return req, nil
			}
			return trace.Request{}, io.EOF
		}
		rotated, err := t.checkRotation()
		if err != nil {
			return trace.Request{}, err
		}
		if rotated {
			continue
		}
		select {
		case <-t.stopCh:
		case <-time.After(t.cfg.Poll):
		}
	}
}

// nextLine pops one complete line off the pending buffer.
func (t *Tailer) nextLine() (string, bool) {
	i := bytes.IndexByte(t.pending, '\n')
	if i < 0 {
		return "", false
	}
	line := t.pending[:i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	s := string(line)
	t.pending = t.pending[i+1:]
	return s, true
}

// linePos is the file offset just past the last consumed byte.
func (t *Tailer) linePos() int64 { return t.filePos - int64(len(t.pending)) }

// fill reads more bytes from the current file into pending.
func (t *Tailer) fill() (int, error) {
	n, err := t.f.Read(t.readBuf)
	if n > 0 {
		t.pending = append(t.pending, t.readBuf[:n]...)
		t.filePos += int64(n)
	}
	return n, err
}

// flushPartial treats an unterminated final line as complete — the file
// is done growing (rotation or stop), so the bytes will never be
// finished.
func (t *Tailer) flushPartial() (trace.Request, bool) {
	if len(t.pending) == 0 {
		return trace.Request{}, false
	}
	line := string(t.pending)
	t.pending = t.pending[:0:0] // drop the buffer; the file is done
	return t.consume(line)
}

// consume parses one line, accounting for it, and extends the commit
// marks. ok is false for skipped and malformed lines.
func (t *Tailer) consume(line string) (trace.Request, bool) {
	off := t.linePos()
	req, err := t.cfg.Format.Parse(line)
	switch {
	case err == nil:
		t.cfg.Counters.addLine(len(line) + 1)
		t.cfg.Counters.observeEvent(req.Time)
		t.extendMarks(req.Time.UnixNano(), off)
		return req, true
	case err == ErrSkip:
		t.extendMarks(math.MinInt64, off) // carries no event; always safe to skip
		return trace.Request{}, false
	default:
		t.cfg.Counters.addError()
		t.extendMarks(math.MinInt64, off)
		return trace.Request{}, false
	}
}

// extendMarks records that generation gen is applied-or-late up to off
// once the horizon passes tNs.
func (t *Tailer) extendMarks(tNs int64, off int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := int64(math.MinInt64)
	if n := len(t.marks); n > 0 {
		last = t.marks[n-1].tMax
	}
	if tNs < last {
		tNs = last // prefix max: an older event doesn't lower the bar
	}
	if n := len(t.marks); n > 0 && t.marks[n-1].gen == t.gen && tNs == t.marks[n-1].tMax {
		t.marks[n-1].off = off
		return
	}
	t.marks = append(t.marks, mark{gen: t.gen, tMax: tNs, off: off})
	if len(t.marks) > maxMarks {
		// Halve by dropping every other mark (always keeping the last):
		// coarser checkpoints, still conservative.
		kept := t.marks[:0]
		for i := range t.marks {
			if i%2 == 1 || i == len(t.marks)-1 {
				kept = append(kept, t.marks[i])
			}
		}
		t.marks = kept
	}
}

// checkRotation probes Path for rename/recreate and truncation. It
// returns true when the reader switched files (or rewound) and should
// retry immediately.
func (t *Tailer) checkRotation() (bool, error) {
	cur, err := t.f.Stat()
	if err != nil {
		return false, fmt.Errorf("source: %w", err)
	}
	fi, err := os.Stat(t.cfg.Path)
	if err != nil {
		// Mid-rotation hole: the old name is gone, the new file not yet
		// created. Keep polling the old handle.
		return false, nil
	}
	if !os.SameFile(cur, fi) {
		// Double-check for a last write that raced the rename, then hand
		// control back to read: it delivers the old file's final
		// unterminated line (if any) before switching to the new file.
		if n, _ := t.fill(); n == 0 {
			t.switchPending = true
		}
		return true, nil
	}
	if fi.Size() < t.filePos {
		// Truncated in place (copytruncate): restart from the top. The
		// current generation's bytes no longer exist, so its commit marks
		// must not back a checkpoint offset into the regrown file.
		if _, err := t.f.Seek(0, io.SeekStart); err != nil {
			return false, fmt.Errorf("source: %w", err)
		}
		t.dropGenMarks(t.gen)
		t.bumpGen()
		t.filePos = 0
		t.pending = t.pending[:0]
		return true, nil
	}
	return false, nil
}

// switchToPath closes the drained old file and opens Path fresh.
func (t *Tailer) switchToPath() error {
	t.f.Close()
	f, err := os.Open(t.cfg.Path)
	if err != nil {
		return fmt.Errorf("source: %w", err)
	}
	t.f = f
	t.backlog = false
	t.filePos = 0
	t.pending = t.pending[:0:0]
	t.bumpGen()
	return nil
}

// dropGenMarks discards commit marks for one generation — called when
// that generation's bytes are destroyed (truncation), so a checkpoint
// can never point into data that no longer means what it did.
func (t *Tailer) dropGenMarks(gen int) {
	t.mu.Lock()
	kept := t.marks[:0]
	for _, m := range t.marks {
		if m.gen != gen {
			kept = append(kept, m)
		}
	}
	t.marks = kept
	t.mu.Unlock()
}

// bumpGen advances the rotation generation and records the (possibly
// new) file identity for checkpointing.
func (t *Tailer) bumpGen() {
	id, _ := fileIDFor(t.f)
	t.mu.Lock()
	t.gen++
	t.genIDs[t.gen] = id
	t.mu.Unlock()
	t.cfg.Counters.addRotation()
}

// Commit tells the Tailer that every event with a timestamp strictly
// before end has been durably applied (or dropped as late). It advances
// the safe byte offset past all bytes covered by that horizon and, when
// a checkpoint file is configured and the offset moved, persists it
// atomically. The store sink must run before the sink calling Commit,
// so "applied" means "on disk".
func (t *Tailer) Commit(end time.Time) error {
	endNs := end.UnixNano()
	t.mu.Lock()
	var committed *mark
	for len(t.marks) > 0 && t.marks[0].tMax < endNs {
		committed = &t.marks[0]
		t.marks = t.marks[1:]
	}
	if committed == nil {
		t.mu.Unlock()
		return nil
	}
	m := *committed
	id := t.genIDs[m.gen]
	for g := range t.genIDs {
		if g < m.gen {
			delete(t.genIDs, g)
		}
	}
	t.mu.Unlock()
	if t.cfg.Checkpoint == "" {
		return nil
	}
	if err := writeCheckpoint(t.cfg.Checkpoint, &checkpoint{
		Version: 1,
		Path:    t.cfg.Path,
		Dev:     id.Dev,
		Ino:     id.Ino,
		HasID:   id.OK,
		Offset:  m.off,
	}); err != nil {
		return err
	}
	t.cfg.Counters.addCheckpoint()
	return nil
}

// loadCheckpoint reads a checkpoint file; a missing or corrupt file
// means a fresh start, never an error.
func loadCheckpoint(path string) *checkpoint {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil || ck.Version != 1 || ck.Offset < 0 {
		return nil
	}
	return &ck
}

// writeCheckpoint persists atomically and fsynced, so a kill -9 leaves
// either the old checkpoint or the new one, never a torn file.
func writeCheckpoint(path string, ck *checkpoint) error {
	data, err := json.Marshal(ck)
	if err == nil {
		err = store.WriteFileAtomic(path, append(data, '\n'), true)
	}
	if err != nil {
		return fmt.Errorf("source: checkpoint: %w", err)
	}
	return nil
}

// statID stats a path and returns its identity.
func statID(path string) (fileID, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return fileID{}, err
	}
	id, _ := fileIDOf(fi)
	return id, nil
}

// findByID scans dir for a file with the given identity, excluding
// excl — how a resumed Tailer locates the rotated-away log it was
// reading when the process died.
func findByID(dir string, id fileID, excl string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if p == excl {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		if got, ok := fileIDOf(fi); ok && got == id {
			return p
		}
	}
	return ""
}

// SkipBelow drops events older than Horizon — the resume filter pairing
// with the Tailer's conservative checkpoint offsets: re-read events the
// previous process already applied durably fall below the last applied
// window's end and are skipped (counted on Counters), so a kill -9
// restart neither duplicates nor loses events.
type SkipBelow struct {
	Src      stream.Source
	Horizon  time.Time
	Counters *Counters
}

// ReadBatch returns the next events at or after Horizon.
func (s *SkipBelow) ReadBatch(dst []trace.Request) (int, error) {
	return stream.ReadFiltered(s.Src, dst, func(r *trace.Request) bool {
		if r.Time.Before(s.Horizon) {
			s.Counters.addSkipped()
			return false
		}
		return true
	})
}
