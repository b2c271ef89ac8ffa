package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"smash/internal/cluster"
	"smash/internal/synth"
	"smash/internal/trace"
)

// tsDigits is the width of a unixNano timestamp for any date between 2001
// and 2262; the renderer relies on it to patch timestamps in place.
const tsDigits = 19

const day = int64(24 * time.Hour)

// world is one generated week, retimed and rendered for streaming.
//
// The generator packs a day into its first ~14 s (1 ms per request), which
// would leave three of four 6h strides empty, so each day's events are
// spread uniformly over its 24 h, in generator order. The week is rendered
// to TSV once; streaming it again as pass p only rewrites each line's
// timestamp, shifted by p weeks, so the loader's heap does not grow with
// the run length.
type world struct {
	synth *synth.World
	base  int64   // unix nanos of the first day's midnight
	span  int64   // nanos one pass covers
	off   []int64 // retimed offset of every event from base, ascending
	// dayEnd[d] is the index just past day d's last event.
	dayEnd []int
	parts  []partition
}

// partition is the share of the week one fed process receives.
type partition struct {
	tsv   []byte  // TSV lines, each starting with a tsDigits timestamp
	start []int   // byte offset of line i; len = lines+1
	event []int32 // index into world.off of line i
	cum   []int32 // cum[j] = lines among the pass's first j events; len = events+1
}

func generate(ws WorldSpec) (*synth.World, error) {
	return synth.Generate(synth.Config{
		Name: ws.Name, Seed: ws.Seed, Days: ws.Days, Clients: ws.Clients,
		BenignServers: ws.BenignServers, MeanRequests: ws.MeanRequests,
	})
}

// clientSpace is the address block relabelled clients are drawn from:
// 10.0.0.0/16.
const clientSpace = 1 << 16

// newWorld retimes sw, gives every client the address seed draws for it,
// and renders the result for nParts fed processes (clients hash-partitioned
// with the cluster's own function; 1 = unpartitioned).
//
// The seed changes the bytes smashd reads, which client lands in which
// cluster partition and every hash and map order that follows from a client
// address — not who talks to whom, so runs with different seeds do the same
// work and must detect the same campaigns.
func newWorld(sw *synth.World, nParts int, seed int64) (*world, error) {
	addrs := rand.New(rand.NewSource(seed)).Perm(clientSpace)
	renamed := make(map[string]string)
	rename := func(client string) (string, error) {
		if name, ok := renamed[client]; ok {
			return name, nil
		}
		if len(renamed) == clientSpace {
			return "", fmt.Errorf("world: more than %d clients", clientSpace)
		}
		a := addrs[len(renamed)]
		renamed[client] = fmt.Sprintf("10.0.%d.%d", a>>8, a&0xff)
		return renamed[client], nil
	}
	w := &world{
		synth: sw,
		base:  sw.Config.BaseTime.UnixNano(),
		span:  int64(len(sw.Days)) * day,
		parts: make([]partition, nParts),
	}
	if digits := len(fmt.Sprint(w.base)); digits != tsDigits {
		return nil, fmt.Errorf("world: base time renders to %d digits, want %d", digits, tsDigits)
	}
	total := 0
	for _, d := range sw.Days {
		if len(d.Requests) == 0 {
			return nil, fmt.Errorf("world: %s is empty", d.Name)
		}
		total += len(d.Requests)
	}
	w.off = make([]int64, 0, total)
	for k := range w.parts {
		w.parts[k].cum = make([]int32, 1, total+1)
		w.parts[k].start = []int{0}
	}
	for di, d := range sw.Days {
		n := int64(len(d.Requests))
		for i := range d.Requests {
			off := int64(di)*day + int64(i)*day/n
			req := d.Requests[i]
			req.Time = time.Unix(0, w.base+off).UTC()
			var err error
			if req.Client, err = rename(req.Client); err != nil {
				return nil, err
			}
			k := 0
			if nParts > 1 {
				k = cluster.PartitionOf(req.Client, nParts)
			}
			p := &w.parts[k]
			p.tsv = append(trace.AppendRecord(p.tsv, &req), '\n')
			p.start = append(p.start, len(p.tsv))
			p.event = append(p.event, int32(len(w.off)))
			w.off = append(w.off, off)
			for j := range w.parts {
				w.parts[j].cum = append(w.parts[j].cum, int32(len(w.parts[j].event)))
			}
		}
		w.dayEnd = append(w.dayEnd, len(w.off))
	}
	return w, nil
}

// events returns the number of events in one pass.
func (w *world) events() int { return len(w.off) }

// retime rewrites every line's timestamp for pass p.
func (w *world) retime(p int) {
	shift := w.base + int64(p)*w.span
	for k := range w.parts {
		part := &w.parts[k]
		for i, e := range part.event {
			putDigits(part.tsv[part.start[i]:part.start[i]+tsDigits], shift+w.off[e])
		}
	}
}

// putDigits writes v, zero-padded, over dst.
func putDigits(dst []byte, v int64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// slice returns partition k's bytes for the pass's events [a, b).
func (w *world) slice(k, a, b int) []byte {
	p := &w.parts[k]
	return p.tsv[p.start[p.cum[a]]:p.start[p.cum[b]]]
}

// schedule answers, from the loader's own arithmetic, which windows a
// stream of n events must produce, how many requests each holds and which
// event seals it — the reference the daemon's output is checked against.
// Event g of the stream is event g%len(off) of pass g/len(off); windows
// are numbered from the first day's midnight as smashd numbers them.
type schedule struct {
	off            []int64
	span           int64
	window, stride int64
	n              int64 // events in the stream
}

// firstAtOrAfter returns the stream index of the first event whose time,
// relative to the stream's start, is >= t (which may be past the end).
func (s *schedule) firstAtOrAfter(t int64) int64 {
	per := int64(len(s.off))
	rem := t % s.span
	j := sort.Search(len(s.off), func(i int) bool { return s.off[i] >= rem })
	return t/s.span*per + int64(j)
}

// timeOf returns event g's time relative to the stream's start.
func (s *schedule) timeOf(g int64) int64 {
	per := int64(len(s.off))
	return g/per*s.span + s.off[g%per]
}

// windows returns how many windows the stream produces: every window up
// to the one starting in the last event's stride.
func (s *schedule) windows() int {
	return int(s.timeOf(s.n-1)/s.stride) + 1
}

// sealedBy returns the stream index of the event that seals window w —
// the first one at or past its end — or false when only end-of-stream
// seals it.
func (s *schedule) sealedBy(w int) (int64, bool) {
	g := s.firstAtOrAfter(int64(w)*s.stride + s.window)
	return g, g < s.n
}

// requests returns how many of the stream's events fall in window w.
func (s *schedule) requests(w int) int {
	lo := min(s.firstAtOrAfter(int64(w)*s.stride), s.n)
	hi := min(s.firstAtOrAfter(int64(w)*s.stride+s.window), s.n)
	return int(hi - lo)
}

// perPass returns the number of windows starting within one pass.
func (s *schedule) perPass() int { return int(s.span / s.stride) }

// wholeDays returns how many events make up the longest prefix of the
// stream that ends on a day boundary and holds at most limit events.
func (w *world) wholeDays(limit int64) int64 {
	per := int64(len(w.off))
	n := limit / per * per
	best := int64(0)
	for _, end := range w.dayEnd {
		if int64(end) <= limit-n {
			best = int64(end)
		}
	}
	return n + best
}

// score rates detected servers against the world's ground truth the way
// bench_test.go's ablationMetrics does: truth is every campaign server
// that is not benign noise and occurs in the traffic; a noise server
// counts neither for nor against.
func score(sw *synth.World, detected map[string]bool) (recall, precision float64) {
	active := make(map[string]bool)
	for _, d := range sw.Days {
		for i := range d.Requests {
			active[d.Requests[i].ServerKey()] = true
		}
	}
	truth, found, falsePos := 0, 0, 0
	for s := range detected {
		if st, ok := sw.Truth.Servers[s]; !ok || (st.Campaign == "" && !st.Noise) {
			falsePos++
		}
	}
	for s, st := range sw.Truth.Servers {
		if st.Campaign == "" || st.Noise || !active[s] {
			continue
		}
		truth++
		if detected[s] {
			found++
		}
	}
	if truth > 0 {
		recall = float64(found) / float64(truth)
	}
	if found+falsePos > 0 {
		precision = float64(found) / float64(found+falsePos)
	}
	return recall, precision
}
