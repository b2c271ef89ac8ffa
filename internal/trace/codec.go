package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The on-disk format is a line-oriented TSV, one request per line:
//
//	unixNano \t client \t host \t serverIP \t path \t query \t userAgent \t referrer \t status \t payloadDigest
//
// Empty fields are written as "-". Lines beginning with '#' are comments.
// The payload-digest column is optional on input (9-field legacy records
// parse with an empty digest). This mirrors the flow-log exports SMASH
// would consume at an ISP vantage point while staying trivially greppable.

const (
	fieldCount       = 10
	legacyFieldCount = 9
)

// ErrBadRecord is wrapped by decode errors caused by malformed lines.
var ErrBadRecord = errors.New("malformed trace record")

// Writer streams requests to an io.Writer in the TSV trace format.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewWriter returns a trace writer wrapping w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func emptyDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func dashEmpty(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// Write appends one request. Errors are sticky and returned from Flush too.
func (tw *Writer) Write(r *Request) error {
	if tw.err != nil {
		return tw.err
	}
	tw.buf = AppendRecord(tw.buf[:0], r)
	tw.buf = append(tw.buf, '\n')
	_, tw.err = tw.w.Write(tw.buf)
	return tw.err
}

// AppendRecord appends r as one TSV record line (without a trailing
// newline) — the emit-side counterpart of ParseRecord, shared by Writer
// and the internal/source TSV emitter.
func AppendRecord(dst []byte, r *Request) []byte {
	return fmt.Appendf(dst, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%s",
		r.Time.UnixNano(),
		emptyDash(sanitizeField(r.Client)),
		emptyDash(sanitizeField(r.Host)),
		emptyDash(sanitizeField(r.ServerIP)),
		emptyDash(sanitizeField(r.Path)),
		emptyDash(sanitizeField(r.Query)),
		emptyDash(sanitizeField(r.UserAgent)),
		emptyDash(sanitizeField(r.Referrer)),
		r.Status,
		emptyDash(sanitizeField(r.PayloadDigest)))
}

// Flush flushes buffered records and reports any sticky error.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// sanitizeField replaces tabs and newlines so one record stays one line.
func sanitizeField(s string) string {
	if !strings.ContainsAny(s, "\t\n\r") {
		return s
	}
	r := strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")
	return r.Replace(s)
}

// WriteTrace writes an entire trace.
func WriteTrace(w io.Writer, t *Trace) error {
	tw := NewWriter(w)
	if _, err := fmt.Fprintf(tw.w, "# trace %s\n", sanitizeField(t.Name)); err != nil {
		return err
	}
	for i := range t.Requests {
		if err := tw.Write(&t.Requests[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Reader streams requests from an io.Reader in the TSV trace format.
type Reader struct {
	s    *bufio.Scanner
	line int
	name string
}

// NewReader returns a trace reader wrapping r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &Reader{s: s}
}

// Name returns the trace name seen in a "# trace NAME" header, if any.
func (tr *Reader) Name() string { return tr.name }

// Read returns the next request, or io.EOF at end of input.
func (tr *Reader) Read() (Request, error) {
	for tr.s.Scan() {
		tr.line++
		line := tr.s.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# trace "); ok {
				tr.name = strings.TrimSpace(rest)
			}
			continue
		}
		return tr.parse(line)
	}
	if err := tr.s.Err(); err != nil {
		return Request{}, err
	}
	return Request{}, io.EOF
}

func (tr *Reader) parse(line string) (Request, error) {
	req, err := ParseRecord(line)
	if err != nil {
		return Request{}, fmt.Errorf("line %d: %w", tr.line, err)
	}
	return req, nil
}

// ParseRecord parses one TSV trace record line (without its trailing
// newline). It is the single line-level grammar shared by Reader and the
// internal/source TSV decoder; malformed lines wrap ErrBadRecord.
func ParseRecord(line string) (Request, error) {
	// Split into a fixed array rather than strings.Split's fresh slice:
	// the fields are substrings of line, so a record costs no allocation
	// beyond the line itself. n counts every field, kept or not, for the
	// error text.
	var fields [fieldCount]string
	n := 0
	for more := true; more; n++ {
		var field string
		field, line, more = strings.Cut(line, "\t")
		if n < fieldCount {
			fields[n] = field
		}
	}
	if n != fieldCount && n != legacyFieldCount {
		return Request{}, fmt.Errorf("%d fields, want %d or %d: %w",
			n, fieldCount, legacyFieldCount, ErrBadRecord)
	}
	ns, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("time: %w", ErrBadRecord)
	}
	status, err := strconv.Atoi(fields[8])
	if err != nil {
		return Request{}, fmt.Errorf("status: %w", ErrBadRecord)
	}
	req := Request{
		Time:      time.Unix(0, ns).UTC(),
		Client:    dashEmpty(fields[1]),
		Host:      dashEmpty(fields[2]),
		ServerIP:  dashEmpty(fields[3]),
		Path:      dashEmpty(fields[4]),
		Query:     dashEmpty(fields[5]),
		UserAgent: dashEmpty(fields[6]),
		Referrer:  dashEmpty(fields[7]),
		Status:    status,
	}
	if n == fieldCount {
		req.PayloadDigest = dashEmpty(fields[9])
	}
	return req, nil
}

// ReadTrace reads an entire trace into memory.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := NewReader(r)
	t := &Trace{}
	for {
		req, err := tr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Requests = append(t.Requests, req)
	}
	t.Name = tr.Name()
	return t, nil
}
