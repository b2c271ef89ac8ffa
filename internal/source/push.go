package source

import (
	"fmt"
	"io"
	"sync"

	"smash/internal/trace"
)

// PushQueue is the in-memory stream.Source behind the HTTP push
// listener: POST /v1/ingest handlers parse a batch of raw events and
// Push them; the engine's reader goroutine drains them with ReadBatch.
//
// The queue is a bounded channel, so backpressure is end-to-end: when
// the engine falls behind, Push blocks, the HTTP handler stalls, and
// the client's POST doesn't return — exactly the signal a shipping
// agent needs to slow down.
type PushQueue struct {
	ch   chan trace.Request
	done chan struct{}
	once sync.Once
}

// NewPushQueue returns a queue buffering up to capacity events
// (default 4096).
func NewPushQueue(capacity int) *PushQueue {
	if capacity <= 0 {
		capacity = 4096
	}
	return &PushQueue{
		ch:   make(chan trace.Request, capacity),
		done: make(chan struct{}),
	}
}

// Push enqueues a batch in order, blocking while the queue is full. It
// fails once the queue is closed (events enqueued before the failure
// stay enqueued).
func (q *PushQueue) Push(batch []trace.Request) error {
	for i := range batch {
		select {
		case <-q.done:
			return fmt.Errorf("source: push queue closed")
		default:
		}
		select {
		case q.ch <- batch[i]:
		case <-q.done:
			return fmt.Errorf("source: push queue closed")
		}
	}
	return nil
}

// Close marks end-of-stream: queued events still drain, then ReadBatch
// returns io.EOF. Pushes after Close fail. Safe to call more than once
// and concurrently with Push.
func (q *PushQueue) Close() {
	q.once.Do(func() { close(q.done) })
}

// ReadBatch blocks while the queue is empty and open, then drains what
// is queued, up to len(dst), without blocking again. It returns io.EOF
// once the queue is closed and drained.
func (q *PushQueue) ReadBatch(dst []trace.Request) (int, error) {
	// Buffered events win over shutdown, so Close never drops what was
	// already accepted.
	select {
	case dst[0] = <-q.ch:
	default:
		select {
		case dst[0] = <-q.ch:
		case <-q.done:
			select {
			case dst[0] = <-q.ch:
			default:
				return 0, io.EOF
			}
		}
	}
	for n := 1; n < len(dst); n++ {
		select {
		case dst[n] = <-q.ch:
		default:
			return n, nil
		}
	}
	return len(dst), nil
}
