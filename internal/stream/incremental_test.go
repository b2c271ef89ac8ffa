package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"smash/internal/trace"
	"smash/internal/wire"
)

// randomEvents fabricates a small random event stream: a handful of
// servers, clients and files spread over `spreadStrides` strides, with a
// bounded amount of out-of-order jitter so the watermark/lateness paths
// get exercised.
func randomEvents(rng *rand.Rand, n int, stride time.Duration, spreadStrides int, jitter time.Duration) []trace.Request {
	base := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	events := make([]trace.Request, 0, n)
	cursor := time.Duration(0)
	span := stride * time.Duration(spreadStrides)
	for i := 0; i < n; i++ {
		// Mostly-increasing times with random negative jitter.
		cursor += time.Duration(rng.Int63n(int64(span)/int64(n) + 1))
		t := base.Add(cursor - time.Duration(rng.Int63n(int64(jitter)+1)))
		if t.Before(base) || i == 0 {
			// The first event anchors the window origin; keeping it (and
			// every jittered event) at or after base means no event ever
			// precedes the first window, so scratch comparisons stay
			// exact. (Events before the origin are dropped by design.)
			t = base
		}
		r := trace.Request{
			Time:     t,
			Client:   fmt.Sprintf("c%d", rng.Intn(6)),
			Host:     fmt.Sprintf("s%d.com", rng.Intn(8)),
			ServerIP: fmt.Sprintf("9.9.9.%d", rng.Intn(4)),
			Path:     fmt.Sprintf("/f%d.php", rng.Intn(5)),
			Status:   200,
		}
		if rng.Intn(4) == 0 {
			r.Query = "id=1&p=2"
		}
		if rng.Intn(5) == 0 {
			r.Referrer = fmt.Sprintf("ref%d.com", rng.Intn(3))
		}
		events = append(events, r)
	}
	return events
}

// windowFingerprints collects the (Seq, Start, End, Requests, raw-index
// fingerprint) tuple of every window, plus the delta stream.
func windowFingerprints(windows []WindowResult) []string {
	var out []string
	for _, w := range windows {
		fp := ""
		if w.Report != nil && w.Report.RawIndex != nil {
			fp = w.Report.RawIndex.Fingerprint()
		}
		out = append(out, fmt.Sprintf("w%d [%s,%s) req=%d\n%s", w.Seq, w.Start, w.End, w.Requests, fp))
	}
	return out
}

// modelWindow is one window the sequential model predicts.
type modelWindow struct {
	start, end time.Time
	events     []trace.Request
}

// windowModel is the reference the engine is held to: it replays events
// one at a time, single-threaded, keeping a plain event list per open
// window, under the documented rules. The origin is cfg.Origin or the
// first event's time truncated to the stride; window s covers
// [origin+s*stride, origin+s*stride+window); an event before the origin,
// or whose every window has sealed, is dropped and counted late; one whose
// earlier windows have sealed joins only the still-open ones; after each
// accepted event every window ending at or before max event time minus
// the watermark seals, in order; end of input seals the rest.
func windowModel(events []trace.Request, cfg Config) ([]modelWindow, Stats) {
	var (
		st               Stats
		out              []modelWindow
		origin, maxTime  time.Time
		open             = make(map[int64][]trace.Request)
		nextSeal, maxSeq int64
		started          bool
	)
	seal := func() {
		start := origin.Add(cfg.Stride * time.Duration(nextSeal))
		out = append(out, modelWindow{start, start.Add(cfg.Window), open[nextSeal]})
		if len(open[nextSeal]) == 0 {
			st.EmptyWindows++
		}
		delete(open, nextSeal)
		st.Windows++
		nextSeal++
	}
	for i, r := range events {
		if i == 0 {
			if origin = cfg.Origin; origin.IsZero() {
				origin = r.Time.Truncate(cfg.Stride)
			}
		}
		dt := r.Time.Sub(origin)
		hi := int64(dt / cfg.Stride) // last window starting at or before dt
		lo := hi
		for lo > 0 && cfg.Stride*time.Duration(lo-1)+cfg.Window > dt {
			lo-- // earlier windows still covering dt
		}
		if !started && dt >= 0 {
			nextSeal, maxSeq, started = lo, lo, true
		}
		if dt < 0 || hi < nextSeal {
			st.Late++
			continue
		}
		st.Events++
		for s := max(lo, nextSeal); s <= hi; s++ {
			open[s] = append(open[s], r)
		}
		maxSeq = max(maxSeq, hi)
		if r.Time.After(maxTime) {
			maxTime = r.Time
		}
		for nextSeal <= maxSeq && !origin.Add(cfg.Stride*time.Duration(nextSeal)+cfg.Window).After(maxTime.Add(-cfg.Watermark)) {
			seal()
		}
	}
	for started && nextSeal <= maxSeq {
		seal()
	}
	return out, st
}

// TestIncrementalMatchesLegacyWindowing holds the gcd-width fragment ring
// to the sequential model (it kept its name from the days the reference
// was a second, per-window assembly path in the engine). Random
// window/stride/lateness combinations — stride dividing the window,
// window = k*stride + stride/2, strides sharing only a minutes-sized or a
// 1 ns divisor with the window, explicit origins before and after the
// first event — with random shards, workers and symbol rotation must
// produce the model's windows exactly: same count, Seq, bounds, request
// counts and Stats (late drops, empty windows), and every window's index
// fingerprint-equal to trace.BuildIndex of exactly the model's events.
func TestIncrementalMatchesLegacyWindowing(t *testing.T) {
	const ns = time.Nanosecond
	// Non-divisible (window, stride) pairs; the last three are coprime in
	// nanoseconds, so every distinct event time is its own fragment.
	odd := [][2]time.Duration{
		{50 * time.Minute, 30 * time.Minute}, {70 * time.Minute, 30 * time.Minute},
		{25 * time.Minute, 10 * time.Minute}, {time.Hour, 17 * time.Minute},
		{24 * time.Hour, 7 * time.Hour}, {90 * time.Minute, 60 * time.Minute},
		{50*time.Minute + ns, 20 * time.Minute}, {time.Hour, 17*time.Minute + ns},
		{45*time.Minute + 7*ns, 45*time.Minute - 4*ns},
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		stride := time.Duration(1+rng.Intn(4)) * 10 * time.Minute
		var window time.Duration
		if trial%4 == 3 {
			// Non-divisible: window = k*stride + stride/2.
			window = stride*time.Duration(1+rng.Intn(3)) + stride/2
		} else {
			window = stride * time.Duration(1+rng.Intn(4))
		}
		coprime := false
		if trial >= 12 && trial%2 == 0 {
			i := (trial / 2) % len(odd)
			window, stride, coprime = odd[i][0], odd[i][1], i >= 6
		}
		watermark := time.Duration(rng.Intn(3)) * 7 * time.Minute
		jitter := time.Duration(rng.Intn(3)) * 11 * time.Minute
		events := randomEvents(rng, 120+rng.Intn(200), stride, 6+rng.Intn(6), jitter)
		name := fmt.Sprintf("trial%d_w%v_s%v_wm%v_j%v", trial, window, stride, watermark, jitter)

		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Window: window, Stride: stride, Watermark: watermark,
				Shards: 1 + rng.Intn(4), Workers: 1 + rng.Intn(3),
				RotateSymbolsEvery: rng.Intn(4) - 1, // off, default, every window, every other
				KeepIndex:          true,
			}
			switch rng.Intn(3) {
			case 1: // windows start before the data: the first emitted seq is not window 0
				cfg.Origin = events[0].Time.Add(-stride*time.Duration(1+trial%3) - stride/3)
			case 2: // the data starts before the windows: leading events are late
				cfg.Origin = events[0].Time.Add(stride / 3)
			}
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if g, _, _ := eng.fragGeometry(); coprime && g != ns {
				t.Fatalf("fragment width %v, want 1ns for a coprime pair", g)
			}
			got := collect(t, eng, &SliceSource{Requests: events})
			want, wantStats := windowModel(events, cfg)
			if eng.Stats() != wantStats {
				t.Errorf("stats diverge: engine %+v, model %+v", eng.Stats(), wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("engine emitted %d windows, model %d", len(got), len(want))
			}
			for i, w := range got {
				m := want[i]
				if w.Seq != i || !w.Start.Equal(m.start) || !w.End.Equal(m.end) || w.Requests != len(m.events) {
					t.Fatalf("window %d: engine seq=%d [%s,%s) req=%d, model [%s,%s) req=%d",
						i, w.Seq, w.Start, w.End, w.Requests, m.start, m.end, len(m.events))
				}
				wantFP := trace.BuildIndex(&trace.Trace{Requests: m.events}).Fingerprint()
				if gotFP := w.Index.Fingerprint(); gotFP != wantFP {
					t.Errorf("window %d: index diverges from the model's events:\n got: %s\nwant: %s", i, gotFP, wantFP)
				}
				if w.Report != nil && w.Report.RawIndex != w.Index {
					t.Errorf("window %d: detection ran on a different index than the one published", i)
				}
			}
		})
	}
}

// TestEveryEventIndexedOnce pins the cost half of the one-path claim on a
// stride that does not divide its window: the fragments the shards hand
// over hold each accepted event exactly once, although every event lies
// in two or three overlapping windows.
func TestEveryEventIndexedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	events := randomEvents(rng, 300, 10*time.Minute, 12, 5*time.Minute)
	var logged bytes.Buffer
	eng, err := New(Config{
		Window: 25 * time.Minute, Stride: 10 * time.Minute, Watermark: 5 * time.Minute,
		Shards: 3, IndexOnly: true,
		Logger: slog.New(slog.NewJSONHandler(&logged, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, eng, &SliceSource{Requests: events})
	// Sum the sealer's "window sealed" debug records.
	var requests, indexed int
	for dec := json.NewDecoder(&logged); dec.More(); {
		var rec struct {
			Msg               string
			Requests, Indexed int
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Msg == "window sealed" {
			requests, indexed = requests+rec.Requests, indexed+rec.Indexed
		}
	}
	st := eng.Stats()
	if st.Events == 0 || indexed != st.Events {
		t.Errorf("shards indexed %d events, engine accepted %d", indexed, st.Events)
	}
	if requests < 2*st.Events {
		t.Errorf("windows hold %d requests for %d events: not an overlapping configuration", requests, st.Events)
	}
}

// TestIncrementalIndexMatchesScratchBuild is the direct "rolling merged
// index equals BuildIndex of the window's events" assertion: with a
// watermark generous enough that nothing is dropped, every emitted
// window's raw index must fingerprint-equal an index built from scratch
// over exactly the events in [Start, End).
func TestIncrementalIndexMatchesScratchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		stride := time.Duration(1+rng.Intn(3)) * 15 * time.Minute
		k := 1 + rng.Intn(4)
		window := stride * time.Duration(k)
		jitter := time.Duration(rng.Intn(2)) * 9 * time.Minute
		events := randomEvents(rng, 100+rng.Intn(150), stride, 5+rng.Intn(5), jitter)

		t.Run(fmt.Sprintf("trial%d_k%d", trial, k), func(t *testing.T) {
			eng, err := New(Config{
				Window: window, Stride: stride,
				// Larger than any jitter: no event is ever late-dropped,
				// so window contents are exactly the time-range slice.
				Watermark: 24 * time.Hour,
				Shards:    1 + rng.Intn(4),
			})
			if err != nil {
				t.Fatal(err)
			}
			windows := collect(t, eng, &SliceSource{Requests: events})
			if eng.Stats().Late != 0 {
				t.Fatalf("unexpected late drops: %+v", eng.Stats())
			}
			if len(windows) == 0 {
				t.Fatal("no windows emitted")
			}
			for _, w := range windows {
				var scratch trace.Trace
				for _, r := range events {
					if !r.Time.Before(w.Start) && r.Time.Before(w.End) {
						scratch.Requests = append(scratch.Requests, r)
					}
				}
				if w.Requests != len(scratch.Requests) {
					t.Fatalf("window %d holds %d requests, scratch slice has %d",
						w.Seq, w.Requests, len(scratch.Requests))
				}
				if w.Report == nil {
					continue // empty window
				}
				want := trace.BuildIndex(&scratch).Fingerprint()
				if got := w.Report.RawIndex.Fingerprint(); got != want {
					t.Errorf("window %d: rolling index diverges from scratch build:\n got: %s\nwant: %s",
						w.Seq, got, want)
				}
			}
		})
	}
}

// TestSymbolRotationInvisible runs the same stream with aggressive
// symbol-table rotation (every window) and with rotation disabled and
// requires identical output — the id hygiene invariant: epochs change id
// assignment, never reports. In the 4-shard case slabs of 37 events
// straddle the rotations, so a shard's front cache starts over between
// events of one sub-slab.
func TestSymbolRotationInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	stride := 20 * time.Minute
	events := randomEvents(rng, 260, stride, 10, 15*time.Minute)
	run := func(rotateEvery, shards int, src Source) ([]WindowResult, *Engine) {
		eng, err := New(Config{
			Window: 3 * stride, Stride: stride, Watermark: 20 * time.Minute,
			Shards: shards, Workers: 2, RotateSymbolsEvery: rotateEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		return collect(t, eng, src), eng
	}
	offW, offE := run(-1, 3, &SliceSource{Requests: events})
	for _, tc := range []struct {
		name   string
		shards int
		src    Source
	}{
		{"3 shards", 3, &SliceSource{Requests: events}},
		{"4 shards, 37-event slabs", 4, &batchSource{batches: chunked(events, 37)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rotW, rotE := run(1, tc.shards, tc.src)
			if rotE.Stats() != offE.Stats() {
				t.Errorf("stats diverge under rotation: %+v vs %+v", rotE.Stats(), offE.Stats())
			}
			if !reflect.DeepEqual(windowFingerprints(rotW), windowFingerprints(offW)) {
				t.Errorf("symbol rotation changed window output")
			}
			if !reflect.DeepEqual(deltaSummary(rotW), deltaSummary(offW)) {
				t.Errorf("symbol rotation changed delta stream")
			}
		})
	}

	// An IndexOnly engine logs ids and encodes each window to bytes: under
	// rotation every window or every other, with late events and
	// fragments handed over in deltas, its payloads are byte for byte the
	// encodings of a detecting engine's window indexes.
	events = randomEvents(rng, 260, stride, 10, 90*time.Minute)
	keepE, err := New(Config{
		Window: 3 * stride, Stride: stride, Watermark: 20 * time.Minute,
		Shards: 3, Workers: 2, RotateSymbolsEvery: -1, KeepIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	keepW := collect(t, keepE, &SliceSource{Requests: events})
	if keepE.Stats().Late == 0 {
		t.Fatal("no late events: the IndexOnly cases would not cover them")
	}
	for _, rotateEvery := range []int{1, 2} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("IndexOnly rotating every %d, %d shards", rotateEvery, shards), func(t *testing.T) {
				eng, err := New(Config{
					Window: 3 * stride, Stride: stride, Watermark: 20 * time.Minute,
					Shards: shards, Workers: 2, RotateSymbolsEvery: rotateEvery, IndexOnly: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := collect(t, eng, &batchSource{batches: chunked(events, 37)})
				if eng.Stats() != keepE.Stats() || len(got) != len(keepW) {
					t.Fatalf("IndexOnly engine: %d windows, stats %+v; detecting engine: %d, %+v",
						len(got), eng.Stats(), len(keepW), keepE.Stats())
				}
				for i, w := range got {
					if w.Index != nil || w.Requests != keepW[i].Requests ||
						!bytes.Equal(w.Payload, wire.EncodeIndex(keepW[i].Index)) {
						t.Errorf("window %d: payload is not the encoding of the detecting engine's index", i)
					}
				}
			})
		}
	}
}
