package obs

import (
	"fmt"
	"os"
	"sync"
)

// RotatingWriter is a size-bounded log file: writes append to path until
// the next write would push it past maxBytes, at which point the file
// rotates — path moves to path.1, path.1 to path.2, and so on, keeping at
// most keep rotated segments — and a fresh file takes over. It bounds the
// -trace-log NDJSON stream on endless runs, where an unbounded file would
// eventually fill the disk.
//
// Writes are line-oriented: a single Write larger than maxBytes still
// goes out whole (to its own fresh file) rather than being split or
// dropped, so NDJSON lines stay intact across rotations.
type RotatingWriter struct {
	path     string
	maxBytes int64
	keep     int

	mu   sync.Mutex
	f    *os.File
	size int64
}

// NewRotatingWriter opens (or resumes appending to) path. maxBytes <= 0
// disables rotation; keep < 0 keeps no rotated segments (the old file is
// removed at rotation).
func NewRotatingWriter(path string, maxBytes int64, keep int) (*RotatingWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &RotatingWriter{path: path, maxBytes: maxBytes, keep: max(keep, 0), f: f, size: info.Size()}, nil
}

// Write implements io.Writer.
func (w *RotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.maxBytes > 0 && w.size > 0 && w.size+int64(len(p)) > w.maxBytes {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// rotate shifts path.i to path.i+1 (oldest first, dropping past keep),
// moves the active file to path.1, and opens a fresh one. Called with the
// lock held.
func (w *RotatingWriter) rotate() error {
	w.f.Close()
	if w.keep == 0 {
		os.Remove(w.path)
	} else {
		os.Remove(w.segment(w.keep))
		for i := w.keep - 1; i >= 1; i-- {
			os.Rename(w.segment(i), w.segment(i+1))
		}
		os.Rename(w.path, w.segment(1))
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f, w.size = f, 0
	return nil
}

func (w *RotatingWriter) segment(i int) string {
	return fmt.Sprintf("%s.%d", w.path, i)
}

// Close closes the active file.
func (w *RotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
