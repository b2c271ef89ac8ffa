package source

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smash/internal/stream"
	"smash/internal/trace"
)

// tsvLine renders one TSV event line for a client at a unix-second
// timestamp — the tail tests' traffic generator.
func tsvLine(sec int64, client string) string {
	r := trace.Request{Time: time.Unix(sec, 0).UTC(), Client: client, Host: "h.test", Path: "/p", Status: 200}
	return string(trace.AppendRecord(nil, &r)) + "\n"
}

func appendFile(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readOne reads a single event from src.
func readOne(src stream.Source) (trace.Request, error) {
	var one [1]trace.Request
	_, err := src.ReadBatch(one[:])
	return one[0], err
}

func newTestTailer(t *testing.T, path, ckpt string) (*Tailer, *Counters) {
	t.Helper()
	ctrs := NewCounters(path, "tsv")
	tl, err := NewTailer(TailerConfig{
		Path: path, Format: tsvFormat{}, Counters: ctrs,
		Checkpoint: ckpt, Poll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tl, ctrs
}

// startReader drains the tailer on a goroutine, streaming clients until
// EOF. Read errors fail the test.
func startReader(t *testing.T, tl *Tailer) (<-chan string, <-chan struct{}) {
	t.Helper()
	out := make(chan string, 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(out)
		for {
			req, err := readOne(tl)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Errorf("tailer read: %v", err)
				}
				return
			}
			out <- req.Client
		}
	}()
	return out, done
}

func recvClient(t *testing.T, ch <-chan string) string {
	t.Helper()
	select {
	case c, ok := <-ch:
		if !ok {
			t.Fatal("tailer finished early")
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a tailed event")
		return ""
	}
}

func waitDone(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tailer did not stop")
	}
}

func TestTailerFollowsGrowth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	appendFile(t, path, tsvLine(100, "c1")+tsvLine(101, "c2"))

	tl, _ := newTestTailer(t, path, "")
	ch, done := startReader(t, tl)
	if got := recvClient(t, ch); got != "c1" {
		t.Fatalf("first event %q; want c1", got)
	}
	if got := recvClient(t, ch); got != "c2" {
		t.Fatalf("second event %q; want c2", got)
	}
	// The reader is parked at EOF now; live growth must wake it.
	appendFile(t, path, tsvLine(102, "c3"))
	if got := recvClient(t, ch); got != "c3" {
		t.Fatalf("appended event %q; want c3", got)
	}
	// Stop drains the final unterminated line before EOF.
	appendFile(t, path, tsvLine(103, "c4")[:len(tsvLine(103, "c4"))-1]) // no trailing \n
	tl.Stop()
	var rest []string
	for c := range ch {
		rest = append(rest, c)
	}
	if len(rest) != 1 || rest[0] != "c4" {
		t.Fatalf("post-Stop drain = %v; want [c4]", rest)
	}
	waitDone(t, done)
}

func TestTailerRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	partial := tsvLine(102, "c3")
	partial = partial[:len(partial)-1] // unterminated final line
	appendFile(t, path, tsvLine(100, "c1")+tsvLine(101, "c2")+partial)

	tl, ctrs := newTestTailer(t, path, "")
	ch, done := startReader(t, tl)
	if got := recvClient(t, ch); got != "c1" {
		t.Fatalf("got %q; want c1", got)
	}
	if got := recvClient(t, ch); got != "c2" {
		t.Fatalf("got %q; want c2", got)
	}

	// Rotate: rename the live file away, recreate the path. The old
	// file's final unterminated line must still be delivered, then the
	// new file read from offset zero.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, tsvLine(103, "c4"))
	if got := recvClient(t, ch); got != "c3" {
		t.Fatalf("rotated-away partial line: got %q; want c3", got)
	}
	if got := recvClient(t, ch); got != "c4" {
		t.Fatalf("post-rotation event: got %q; want c4", got)
	}
	if n := ctrs.Stats().Rotations; n != 1 {
		t.Errorf("rotations = %d; want 1", n)
	}
	tl.Stop()
	waitDone(t, done)
}

func TestTailerTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	appendFile(t, path, tsvLine(100, "c1")+tsvLine(101, "c2"))

	tl, ctrs := newTestTailer(t, path, "")
	ch, done := startReader(t, tl)
	recvClient(t, ch)
	recvClient(t, ch)

	// copytruncate: same inode, contents replaced with something shorter.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, tsvLine(102, "c3"))
	if got := recvClient(t, ch); got != "c3" {
		t.Fatalf("post-truncation event %q; want c3", got)
	}
	if n := ctrs.Stats().Rotations; n != 1 {
		t.Errorf("rotations = %d; want 1", n)
	}
	tl.Stop()
	waitDone(t, done)
}

func TestTailerCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	ckpt := filepath.Join(dir, "source.ckpt")
	for i := int64(0); i < 6; i++ {
		appendFile(t, path, tsvLine(100+i, fmt.Sprintf("c%d", i)))
	}

	tl, ctrs := newTestTailer(t, path, ckpt)
	ch, done := startReader(t, tl)
	for i := 0; i < 6; i++ {
		recvClient(t, ch)
	}
	// Commit a horizon past the first three events (100, 101, 102): the
	// checkpoint must cover exactly their bytes.
	if err := tl.Commit(time.Unix(103, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if n := ctrs.Stats().Checkpoints; n != 1 {
		t.Errorf("checkpoints = %d; want 1", n)
	}
	tl.Stop()
	waitDone(t, done)

	// A fresh Tailer resumes at the committed offset: events 0-2 are
	// skipped, 3-5 re-read.
	tl2, _ := newTestTailer(t, path, ckpt)
	if rp, off, ok := tl2.Resume(); !ok || rp != path || off == 0 {
		t.Fatalf("Resume() = %q, %d, %v; want %q with a non-zero offset", rp, off, ok, path)
	}
	ch2, done2 := startReader(t, tl2)
	var got []string
	tl2.Stop()
	for c := range ch2 {
		got = append(got, c)
	}
	waitDone(t, done2)
	if want := []string{"c3", "c4", "c5"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed events = %v; want %v", got, want)
	}
}

func TestTailerCorruptCheckpointMeansFreshStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	ckpt := filepath.Join(dir, "source.ckpt")
	appendFile(t, path, tsvLine(100, "c1"))
	appendFile(t, ckpt, "{ not json")

	tl, _ := newTestTailer(t, path, ckpt)
	if _, _, ok := tl.Resume(); ok {
		t.Fatal("corrupt checkpoint produced a resume; want a fresh start")
	}
	ch, done := startReader(t, tl)
	if got := recvClient(t, ch); got != "c1" {
		t.Fatalf("got %q; want c1 (from the top)", got)
	}
	tl.Stop()
	waitDone(t, done)
}

func TestTailerResumeAfterRotationWhileDown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	ckpt := filepath.Join(dir, "source.ckpt")
	for i := int64(0); i < 4; i++ {
		appendFile(t, path, tsvLine(100+i, fmt.Sprintf("c%d", i)))
	}

	tl, _ := newTestTailer(t, path, ckpt)
	ch, done := startReader(t, tl)
	for i := 0; i < 4; i++ {
		recvClient(t, ch)
	}
	if err := tl.Commit(time.Unix(102, 0).UTC()); err != nil { // past c0, c1
		t.Fatal(err)
	}
	tl.Stop()
	waitDone(t, done)

	// Process dies; logrotate renames the file and a new one appears.
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, tsvLine(104, "c4"))

	// The restarted Tailer must find the checkpointed inode under its
	// rotated name, drain c2 and c3 from it, then pick up c4 from the
	// new live file.
	tl2, _ := newTestTailer(t, path, ckpt)
	if rp, _, ok := tl2.Resume(); !ok || rp != path+".1" {
		t.Fatalf("Resume() path = %q, ok=%v; want the rotated file %q", rp, ok, path+".1")
	}
	ch2, done2 := startReader(t, tl2)
	var got []string
	for i := 0; i < 3; i++ {
		got = append(got, recvClient(t, ch2))
	}
	tl2.Stop()
	for c := range ch2 {
		got = append(got, c)
	}
	waitDone(t, done2)
	if want := []string{"c2", "c3", "c4"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed events = %v; want %v", got, want)
	}
}

func TestSkipBelow(t *testing.T) {
	reqs := []trace.Request{
		{Time: time.Unix(100, 0).UTC(), Client: "old1"},
		{Time: time.Unix(150, 0).UTC(), Client: "old2"},
		{Time: time.Unix(200, 0).UTC(), Client: "keep1"}, // exactly at the horizon
		{Time: time.Unix(120, 0).UTC(), Client: "old3"},  // late stragglers drop too
		{Time: time.Unix(250, 0).UTC(), Client: "keep2"},
	}
	ctrs := NewCounters("t", "tsv")
	s := &SkipBelow{Src: &stream.SliceSource{Requests: reqs}, Horizon: time.Unix(200, 0).UTC(), Counters: ctrs}
	var got []string
	for {
		r, err := readOne(s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r.Client)
	}
	if want := []string{"keep1", "keep2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kept %v; want %v", got, want)
	}
	if n := ctrs.Stats().Skipped; n != 3 {
		t.Errorf("skipped = %d; want 3", n)
	}
}

// stallSource hands out its batches one per call, then blocks until
// release closes.
type stallSource struct {
	batches [][]trace.Request
	release chan struct{}
}

func (s *stallSource) ReadBatch(dst []trace.Request) (int, error) {
	if len(s.batches) == 0 {
		<-s.release
		return 0, io.EOF
	}
	n := copy(dst, s.batches[0])
	s.batches = s.batches[1:]
	return n, nil
}

// A filter never blocks while it holds an event: when the only event
// above the horizon is followed by a batch that falls below it and then a
// stall, that event still reaches the engine before the source unblocks.
func TestSkipBelowDeliversBeforeBlocking(t *testing.T) {
	src := &stallSource{
		batches: [][]trace.Request{
			{{Time: time.Unix(300, 0).UTC(), Client: "keep", Host: "h.test"}},
			{{Time: time.Unix(100, 0).UTC(), Client: "old1"}, {Time: time.Unix(150, 0).UTC(), Client: "old2"}},
		},
		release: make(chan struct{}),
	}
	eng, err := stream.New(stream.Config{Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	out := eng.Start(&SkipBelow{Src: src, Horizon: time.Unix(200, 0).UTC()})
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Events == 0 {
		if time.Now().After(deadline) {
			close(src.release)
			t.Fatal("the event above the horizon never reached the engine while the source stalled")
		}
		time.Sleep(time.Millisecond)
	}
	close(src.release)
	var requests int
	for w := range out {
		requests += w.Requests
	}
	if requests != 1 {
		t.Errorf("windowed %d requests, want 1", requests)
	}
}

func TestCheckpointSink(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	ckpt := filepath.Join(dir, "source.ckpt")
	appendFile(t, path, tsvLine(100, "c1")+tsvLine(200, "c2"))

	tl, ctrs := newTestTailer(t, path, ckpt)
	ch, done := startReader(t, tl)
	recvClient(t, ch)
	recvClient(t, ch)

	sink := &CheckpointSink{T: tl}
	sink.Consume(&stream.WindowResult{End: time.Unix(150, 0).UTC()})
	if n := ctrs.Stats().Checkpoints; n != 1 {
		t.Fatalf("checkpoints after first window = %d; want 1", n)
	}
	// A window whose horizon moves nothing must not rewrite the file.
	sink.Consume(&stream.WindowResult{End: time.Unix(150, 0).UTC()})
	if n := ctrs.Stats().Checkpoints; n != 1 {
		t.Fatalf("checkpoints after no-op window = %d; want still 1", n)
	}
	tl.Stop()
	waitDone(t, done)
}

func TestPushQueue(t *testing.T) {
	q := NewPushQueue(8)
	batch := []trace.Request{
		{Time: time.Unix(1, 0), Client: "a"},
		{Time: time.Unix(2, 0), Client: "b"},
	}
	if err := q.Push(batch); err != nil {
		t.Fatal(err)
	}
	q.Close()
	// Buffered events survive Close, in order and in one batch, then EOF.
	var got []string
	var batches []int
	buf := make([]trace.Request, 8)
	for {
		n, err := q.ReadBatch(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, n)
		for _, r := range buf[:n] {
			got = append(got, r.Client)
		}
	}
	if fmt.Sprint(got) != "[a b]" || fmt.Sprint(batches) != "[2]" {
		t.Fatalf("drained %v in batches %v; want [a b] in [2]", got, batches)
	}
	if err := q.Push(batch); err == nil {
		t.Fatal("Push after Close succeeded; want an error")
	}
	q.Close() // idempotent
}

func TestPushQueueBackpressure(t *testing.T) {
	q := NewPushQueue(1)
	pushed := make(chan error, 1)
	go func() {
		pushed <- q.Push([]trace.Request{{Client: "a"}, {Client: "b"}, {Client: "c"}})
	}()
	// The pusher is blocked on the full queue until the reader drains.
	select {
	case err := <-pushed:
		t.Fatalf("Push returned %v before the queue drained", err)
	case <-time.After(20 * time.Millisecond):
	}
	for _, want := range []string{"a", "b", "c"} {
		r, err := readOne(q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Client != want {
			t.Fatalf("read %q; want %q", r.Client, want)
		}
	}
	if err := <-pushed; err != nil {
		t.Fatalf("Push: %v", err)
	}

	// Close unblocks a stuck pusher with an error.
	q2 := NewPushQueue(1)
	go func() {
		pushed <- q2.Push([]trace.Request{{Client: "x"}, {Client: "y"}})
	}()
	select {
	case err := <-pushed:
		t.Fatalf("Push returned %v before Close", err)
	case <-time.After(20 * time.Millisecond):
	}
	q2.Close()
	if err := <-pushed; err == nil {
		t.Fatal("Push survived Close while blocked; want an error")
	}
}
