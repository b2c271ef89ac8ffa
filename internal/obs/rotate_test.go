package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRotatingWriterRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	w, err := NewRotatingWriter(path, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	line := strings.Repeat("x", 39) + "\n" // 40 bytes; 2 fit per segment
	for i := 0; i < 9; i++ {
		if _, err := w.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	// 9 lines, 2 per full segment: active holds 1 line, .1 and .2 hold 2
	// each, the rest were dropped past keep=2.
	for seg, want := range map[string]int64{path: 40, path + ".1": 80, path + ".2": 80} {
		info, err := os.Stat(seg)
		if err != nil {
			t.Errorf("%s: %v", seg, err)
			continue
		}
		if info.Size() != want {
			t.Errorf("%s: size = %d, want %d", seg, info.Size(), want)
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("segment past keep bound exists (err=%v)", err)
	}
}

func TestRotatingWriterKeepsLinesIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	w, err := NewRotatingWriter(path, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	big := strings.Repeat("y", 120) + "\n" // larger than maxBytes
	if _, err := w.Write([]byte("first\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	// The oversized line rotated the small file out and went out whole.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != big {
		t.Errorf("active file = %q, want the oversized line intact", string(data))
	}
	prev, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if string(prev) != "first\n" {
		t.Errorf("rotated segment = %q, want %q", string(prev), "first\n")
	}
}

func TestRotatingWriterResumesAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	for i := 0; i < 2; i++ {
		w, err := NewRotatingWriter(path, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "run-%d\n", i)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "run-0\nrun-1\n" {
		t.Errorf("reopened file = %q, want both runs appended", string(data))
	}
}
