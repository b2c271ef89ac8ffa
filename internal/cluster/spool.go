package cluster

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smash/internal/store"
)

// spool is the Forwarder's durable overflow: encoded fragments whose
// delivery exhausted its retry budget are written here (one file per
// fragment, fsynced) and drained in arrival order once the aggregator
// answers again — so an aggregator outage costs latency, not data. The
// spool is bounded: when a new entry would push it past maxBytes, the
// oldest entries are dropped and counted, keeping a long outage from
// filling the disk. Entries survive process restarts; a new Forwarder
// pointed at the same directory picks them up and continues the sequence.
//
// Order matters: the aggregator derives each node's watermark from the
// highest window it has received, so fragments must arrive in window
// order. Consume therefore appends behind a non-empty spool instead of
// racing past it, and the final marker is only sent once the spool is dry.
type spool struct {
	dir string
	max int64
	log *slog.Logger

	mu      sync.Mutex
	seqs    []int64 // pending entries, ascending
	sizes   map[int64]int64
	next    int64
	bytes   int64
	spooled int64 // fragments ever spooled (counter)
	dropped int64 // fragments dropped to respect the bound (counter)
}

const spoolSuffix = ".frag"

// spoolMaxBytes bounds a Forwarder's spool — the same ceiling serve puts
// on one fragment body.
const spoolMaxBytes = 256 << 20

func openSpool(dir string, max int64, log *slog.Logger) (*spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: spool: %w", err)
	}
	s := &spool{dir: dir, max: max, log: log, sizes: make(map[int64]int64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: spool: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".tmp") {
			// A put the process died in (or that hit ENOSPC): that
			// fragment never became durable.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if e.IsDir() || !strings.HasSuffix(name, spoolSuffix) {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimSuffix(name, spoolSuffix), 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.seqs = append(s.seqs, seq)
		s.sizes[seq] = info.Size()
		s.bytes += info.Size()
		if seq >= s.next {
			s.next = seq + 1
		}
	}
	sort.Slice(s.seqs, func(i, j int) bool { return s.seqs[i] < s.seqs[j] })
	return s, nil
}

func (s *spool) path(seq int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%012d%s", seq, spoolSuffix))
}

// put appends one encoded fragment, evicting the oldest entries when the
// bound demands it. The write is atomic and fsynced: once put returns,
// the fragment survives kill -9.
func (s *spool) put(body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(len(body)) > s.max {
		s.dropped++
		s.log.Error("fragment larger than the whole spool bound; dropped",
			"bytes", len(body), "spoolMaxBytes", s.max)
		return nil
	}
	for len(s.seqs) > 0 && s.bytes+int64(len(body)) > s.max {
		oldest := s.seqs[0]
		s.removeLocked(oldest)
		s.dropped++
		s.log.Warn("spool full; dropped oldest fragment", "seq", oldest, "spoolMaxBytes", s.max)
	}
	seq := s.next
	if err := store.WriteFileAtomic(s.path(seq), body, true); err != nil {
		return fmt.Errorf("cluster: spool: %w", err)
	}
	s.next = seq + 1
	s.seqs = append(s.seqs, seq)
	s.sizes[seq] = int64(len(body))
	s.bytes += int64(len(body))
	s.spooled++
	return nil
}

// peek returns the oldest pending entry without removing it, plus how
// long it has sat on disk (from the file's mtime — the put time, which
// survives restarts; zero when the clock went backwards or stat failed).
func (s *spool) peek() (seq int64, body []byte, dwell time.Duration, ok bool) {
	s.mu.Lock()
	if len(s.seqs) == 0 {
		s.mu.Unlock()
		return 0, nil, 0, false
	}
	seq = s.seqs[0]
	s.mu.Unlock()
	body, err := os.ReadFile(s.path(seq))
	if err != nil {
		// The entry is unreadable; drop it so the drain can make progress.
		s.mu.Lock()
		s.removeLocked(seq)
		s.dropped++
		s.mu.Unlock()
		s.log.Error("spool entry unreadable; dropped", "seq", seq, "err", err)
		return 0, nil, 0, false
	}
	if info, err := os.Stat(s.path(seq)); err == nil {
		dwell = max(time.Since(info.ModTime()), 0)
	}
	return seq, body, dwell, true
}

// remove deletes one delivered (or abandoned) entry.
func (s *spool) remove(seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(seq)
}

func (s *spool) removeLocked(seq int64) {
	os.Remove(s.path(seq))
	for i, q := range s.seqs {
		if q == seq {
			s.seqs = append(s.seqs[:i], s.seqs[i+1:]...)
			break
		}
	}
	s.bytes -= s.sizes[seq]
	delete(s.sizes, seq)
}

func (s *spool) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seqs)
}

func (s *spool) pendingBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

func (s *spool) counters() (spooled, dropped int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spooled, s.dropped
}
