//go:build !unix

package main

import "os"

// pollable returns f unchanged: only unix pipes are made pollable.
func pollable(f *os.File) (_ *os.File, restore func() error) {
	return f, func() error { return nil }
}
