package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestCodecRoundTrip(t *testing.T) {
	orig := &Trace{
		Name: "Data2011day",
		Requests: []Request{
			{
				Time:      time.Unix(100, 5).UTC(),
				Client:    "10.0.0.1",
				Host:      "a.example.com",
				ServerIP:  "1.2.3.4",
				Path:      "/images/news.php",
				Query:     "p=16435&id=21799517&e=0",
				UserAgent: "Internet Exploder",
				Referrer:  "landing.com",
				Status:    200,
			},
			{
				Time:     time.Unix(101, 0).UTC(),
				Client:   "10.0.0.2",
				Host:     "",
				ServerIP: "5.6.7.8",
				Path:     "/",
				Status:   404,
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Errorf("Name = %q, want %q", got.Name, orig.Name)
	}
	if len(got.Requests) != len(orig.Requests) {
		t.Fatalf("got %d requests, want %d", len(got.Requests), len(orig.Requests))
	}
	for i := range orig.Requests {
		if got.Requests[i] != orig.Requests[i] {
			t.Errorf("request %d mismatch:\n got %+v\nwant %+v", i, got.Requests[i], orig.Requests[i])
		}
	}
}

func TestCodecSanitizesTabs(t *testing.T) {
	orig := &Trace{Requests: []Request{{
		Time:      time.Unix(1, 0).UTC(),
		Client:    "c",
		Host:      "h.com",
		UserAgent: "evil\tagent\nwith newline",
		Status:    200,
	}}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(got.Requests[0].UserAgent, "\t\n") {
		t.Errorf("UserAgent not sanitized: %q", got.Requests[0].UserAgent)
	}
}

func TestReaderErrors(t *testing.T) {
	tests := []struct {
		name string
		line string
		want string
	}{
		{"too few fields", "123\ta\tb", "line 1: 3 fields, want 10 or 9: malformed trace record"},
		{"too many fields", "1\tc\th\ti\tp\tq\tu\tr\t200\td\tx\ty", "line 1: 12 fields, want 10 or 9: malformed trace record"},
		{"bad time", "abc\tc\th\ti\tp\tq\tu\tr\t200", "line 1: time: malformed trace record"},
		{"bad status", "123\tc\th\ti\tp\tq\tu\tr\tXX", "line 1: status: malformed trace record"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewReader(strings.NewReader(tt.line)).Read()
			if !errors.Is(err, ErrBadRecord) {
				t.Errorf("err = %v, want ErrBadRecord", err)
			}
			if err != nil && err.Error() != tt.want {
				t.Errorf("err = %q, want %q", err, tt.want)
			}
		})
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	input := "# a comment\n\n# trace foo\n1\tc\th.com\t1.1.1.1\t/\t-\t-\t-\t200\n"
	r := NewReader(strings.NewReader(input))
	req, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if req.Client != "c" {
		t.Errorf("Client = %q", req.Client)
	}
	if r.Name() != "foo" {
		t.Errorf("Name = %q, want foo", r.Name())
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	r := Request{Time: time.Unix(1, 0)}
	// Buffered writer: first writes succeed until the buffer flushes, so
	// force a flush to surface the error, then confirm it is sticky.
	for i := 0; i < 10000; i++ {
		if err := w.Write(&r); err != nil {
			break
		}
	}
	if err := w.Flush(); err == nil {
		t.Error("Flush should report the write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("boom") }
