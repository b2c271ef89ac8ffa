//go:build unix

package main

import (
	"os"
	"syscall"
	"time"
)

// pollable returns f unchanged unless it is a pipe or FIFO that the
// runtime poller does not serve, as os.Stdin on a pipe is not: each of
// its reads holds a P in read(2) until input arrives, which on one P
// stalls every other goroutine. Then it returns a non-blocking duplicate
// that the poller serves, so a waiting reader parks instead. The
// duplicate shares f's open file description, so f is non-blocking too
// until restore closes the duplicate and makes f blocking again.
func pollable(f *os.File) (_ *os.File, restore func() error) {
	keep := func() error { return nil }
	// SetReadDeadline succeeds only on a file the poller already serves,
	// the one kind whose Fd would switch it to blocking mode.
	st, err := f.Stat()
	if err != nil || st.Mode()&os.ModeNamedPipe == 0 || f.SetReadDeadline(time.Time{}) == nil {
		return f, keep
	}
	fd := int(f.Fd())
	dup, err := syscall.Dup(fd)
	if err != nil {
		return f, keep
	}
	syscall.CloseOnExec(dup)
	// Should this fail, NewFile wraps a blocking duplicate, read as before.
	syscall.SetNonblock(dup, true)
	p := os.NewFile(uintptr(dup), f.Name())
	return p, func() error {
		err := p.Close()
		if berr := syscall.SetNonblock(fd, false); err == nil {
			err = berr
		}
		return err
	}
}
