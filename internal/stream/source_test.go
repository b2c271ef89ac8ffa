package stream

import (
	"io"
	"testing"
	"time"

	"smash/internal/trace"
)

// An out-of-order event must not move the pacing clock backwards: the next
// in-order event is due relative to the newest time already replayed, so
// the whole replay takes about the recorded span divided by the speedup,
// not one extra gap per straggler.
func TestPacedSourceOutOfOrder(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var reqs []trace.Request
	for _, s := range []int{0, 1000, 1, 1001} {
		reqs = append(reqs, trace.Request{Time: base.Add(time.Duration(s) * time.Second)})
	}
	const speedup = 1e4
	src := &PacedSource{Src: &SliceSource{Requests: reqs}, Speedup: speedup}
	dst := make([]trace.Request, 4)
	start := time.Now()
	n := 0
	for {
		k, err := src.ReadBatch(dst)
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	if n != len(reqs) {
		t.Fatalf("replayed %d events, want %d", n, len(reqs))
	}
	span := time.Duration(float64(1001*time.Second) / speedup)
	if bound := span * 3 / 2; took > bound {
		t.Errorf("replay took %v, want <= %v (recorded span %v)", took, bound, span)
	}
}
