package stream

import (
	"io"
	"time"

	"smash/internal/trace"
)

// Source yields HTTP request events in arrival order, a batch at a time.
//
// ReadBatch has io.Reader semantics: it blocks only until at least one
// event is available, then fills dst with up to len(dst) events it
// already holds, without waiting for more — batching never adds latency.
// It returns n > 0 events, or 0 and an error: io.EOF once the stream has
// ended. source.Decoder makes any TSV trace file (or stdin pipe) or
// access log a Source.
type Source interface {
	ReadBatch(dst []trace.Request) (int, error)
}

// ReadFiltered is src.ReadBatch keeping only the events keep accepts,
// compacted in place in dst. It reads again only when a whole batch was
// dropped, so a filtering Source built on it never blocks while holding an
// event.
func ReadFiltered(src Source, dst []trace.Request, keep func(*trace.Request) bool) (int, error) {
	for {
		n, err := src.ReadBatch(dst)
		if n == 0 {
			return 0, err
		}
		kept := 0
		for i := range dst[:n] {
			if keep(&dst[i]) {
				dst[kept] = dst[i]
				kept++
			}
		}
		if kept > 0 {
			return kept, nil
		}
	}
}

// SliceSource replays an in-memory request slice (e.g. a synthesized
// trace's Requests) in order.
type SliceSource struct {
	Requests []trace.Request
	pos      int
}

// ReadBatch copies the next requests into dst, or returns io.EOF.
func (s *SliceSource) ReadBatch(dst []trace.Request) (int, error) {
	if s.pos >= len(s.Requests) {
		return 0, io.EOF
	}
	n := copy(dst, s.Requests[s.pos:])
	s.pos += n
	return n, nil
}

// MultiSource concatenates sources in order, reading each to exhaustion
// before moving on — how smashd replays day1.tsv day2.tsv … as one stream.
type MultiSource struct {
	Sources []Source
	pos     int
}

// ReadBatch returns the current source's next batch, moving to the next
// source at each io.EOF, and io.EOF after the last source ends.
func (m *MultiSource) ReadBatch(dst []trace.Request) (int, error) {
	for m.pos < len(m.Sources) {
		n, err := m.Sources[m.pos].ReadBatch(dst)
		if err == io.EOF {
			m.pos++
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

// PacedSource throttles replay so event spacing approximates recorded time
// divided by Speedup: Speedup 86400 replays a day per second, Speedup 1 in
// real time. Speedup <= 0 disables pacing. Gaps are measured from the
// newest event time seen so far, so an out-of-order event neither sleeps
// nor makes the next in-order one sleep its gap again.
type PacedSource struct {
	Src     Source
	Speedup float64
	newest  time.Time
}

// ReadBatch returns one request, after the paced delay: each event is due
// at its own time, so a batch would hold early ones back.
func (p *PacedSource) ReadBatch(dst []trace.Request) (int, error) {
	n, err := p.Src.ReadBatch(dst[:1])
	if n == 0 {
		return 0, err
	}
	if p.Speedup > 0 {
		t := dst[0].Time
		if !p.newest.IsZero() {
			if gap := t.Sub(p.newest); gap > 0 {
				time.Sleep(time.Duration(float64(gap) / p.Speedup))
			}
		}
		if t.After(p.newest) {
			p.newest = t
		}
	}
	return 1, nil
}
