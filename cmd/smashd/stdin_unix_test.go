//go:build unix

package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// blockingPipe returns both ends of a pipe as files the poller does not
// serve, the way os.Stdin wraps an inherited pipe.
func blockingPipe(t *testing.T) (r, w *os.File) {
	t.Helper()
	var fds [2]int
	if err := syscall.Pipe(fds[:]); err != nil {
		t.Fatal(err)
	}
	r, w = os.NewFile(uintptr(fds[0]), "pipe-r"), os.NewFile(uintptr(fds[1]), "pipe-w")
	t.Cleanup(func() { r.Close(); w.Close() })
	return r, w
}

func nonblocking(t *testing.T, f *os.File) bool {
	t.Helper()
	flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, f.Fd(), syscall.F_GETFL, 0)
	if errno != 0 {
		t.Fatal(errno)
	}
	return flags&syscall.O_NONBLOCK != 0
}

func TestPollable(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		r, _ := blockingPipe(t)
		if err := r.SetReadDeadline(time.Now()); !errors.Is(err, os.ErrNoDeadline) {
			t.Fatalf("raw pipe SetReadDeadline = %v, want os.ErrNoDeadline", err)
		}
		p, restore := pollable(r)
		if err := p.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
			t.Fatalf("pollable pipe SetReadDeadline: %v", err)
		}
		if _, err := p.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read of an idle pollable pipe = %v, want a deadline error", err)
		}
		if err := restore(); err != nil {
			t.Fatal(err)
		}
		if nonblocking(t, r) {
			t.Error("O_NONBLOCK still set after restore")
		}
	})
	t.Run("regular file", func(t *testing.T) {
		f, err := os.Create(filepath.Join(t.TempDir(), "f"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if p, restore := pollable(f); p != f || restore() != nil {
			t.Error("a regular file did not come back unchanged")
		}
	})
	// run reading a blocking stdin pipe prints what it prints from
	// memory, and leaves the pipe blocking when it returns.
	t.Run("run", func(t *testing.T) {
		_, paths := writeWorld(t, 1)
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		args := []string{"-json", "-window", "24h"}
		var want, got bytes.Buffer
		if err := run(context.Background(), args, bytes.NewReader(data), &want); err != nil {
			t.Fatal(err)
		}
		r, w := blockingPipe(t)
		go func() {
			w.Write(data)
			w.Close()
		}()
		if err := run(context.Background(), args, r, &got); err != nil {
			t.Fatal(err)
		}
		if nonblocking(t, r) {
			t.Error("stdin pipe left non-blocking after run")
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("output over a pipe differs:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
		}
	})
}
