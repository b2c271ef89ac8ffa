// Package source is smashd's real-traffic ingestion surface: the format
// layer that turns raw server logs — as they are written — into the
// trace.Request events the streaming engine consumes.
//
// Everything upstream of this package replays pre-cooked TSV traces; a
// system aimed at heavy production traffic has to eat real access logs.
// The package provides three pieces:
//
//   - Format parsers ("tsv", "common", "combined", "jsonl") mapping one
//     raw log line onto a trace.Request, each paired with the emitter
//     that writes the same format (cmd/tracegen's -log-format) and a
//     Project function describing exactly which request fields the
//     format can carry. Parsers are strict but never fatal: a Decoder
//     counts malformed lines and keeps going, so one corrupt record
//     cannot kill a daemon that has been up for a month.
//
//   - A rotation-aware file Tailer (tail.go): follows a live log file
//     across rename/recreate and truncation, persists byte-offset
//     checkpoints to the state dir with the same atomic tmp+rename
//     discipline as internal/store, and resumes after a crash without
//     losing or duplicating events (see the Tailer doc for the exact
//     guarantee).
//
//   - A PushQueue (push.go): an in-memory stream.Source fed by the HTTP
//     push listener on POST /v1/ingest (internal/serve), so agents can
//     ship batched raw events over the network instead of sharing a
//     filesystem. Pushes block while the engine is behind — the HTTP
//     handler stalls, propagating the engine's backpressure to the
//     client.
//
// Every source carries a Counters block; internal/serve renders them as
// the smash_source_* Prometheus series (lines parsed, parse errors,
// bytes, rotations, skipped events, checkpoints, event-time lag).
package source

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"smash/internal/trace"
)

// ErrSkip is returned by Format.Parse for lines that carry no event and
// no error either — blank lines and comment headers. Decoders drop them
// without touching the parse-error counter.
var ErrSkip = errors.New("source: skippable line")

// ErrBadLine wraps every malformed-line parse error, so callers can
// distinguish data errors (counted, skipped) from I/O errors (fatal).
var ErrBadLine = errors.New("source: malformed line")

// badLine wraps a malformed-line error with its cause.
func badLine(format string, a ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, a...), ErrBadLine)
}

// Format is one log-line grammar: the parse and emit sides of a format
// plus its projection rule. Implementations are stateless after
// construction and safe for concurrent use.
type Format interface {
	// Name returns the format's registry name ("tsv", "common",
	// "combined", "jsonl").
	Name() string
	// Parse maps one raw line (without its trailing newline) onto a
	// request. Malformed lines wrap ErrBadLine; ignorable lines return
	// ErrSkip.
	Parse(line string) (trace.Request, error)
	// Append appends r rendered as one line of this format (without a
	// trailing newline). Append and Parse round-trip exactly on projected
	// requests: Parse(Append(Project(r))) == Project(r).
	Append(dst []byte, r *trace.Request) []byte
	// Project returns r reduced to what this format can represent — the
	// fields (and timestamp resolution) that survive an Append/Parse
	// round trip. TSV and JSONL are lossless; the access-log formats
	// drop what the grammar has no field for.
	Project(r trace.Request) trace.Request
}

// Options parameterizes format construction.
type Options struct {
	// Host is the static server identity assumed for access-log lines
	// that carry no virtual-host token — an access log usually belongs to
	// one server, so "point smashd at example.com's log" sets Host to
	// example.com. Lines with a vhost token or an absolute request URI
	// override it.
	Host string
	// JSONLMap overrides the JSONL field mapping: logical field name ->
	// JSON key (see JSONLFields). Unmapped fields keep their defaults.
	JSONLMap map[string]string
}

// Names lists the registered format names, sorted.
func Names() []string {
	names := []string{"tsv", "common", "combined", "jsonl"}
	sort.Strings(names)
	return names
}

// New builds the named format.
func New(name string, opt Options) (Format, error) {
	switch name {
	case "tsv":
		return tsvFormat{}, nil
	case "common":
		return &clfFormat{name: "common", host: opt.Host}, nil
	case "combined":
		return &clfFormat{name: "combined", combined: true, host: opt.Host}, nil
	case "jsonl":
		return newJSONLFormat(opt.JSONLMap)
	default:
		return nil, fmt.Errorf("source: unknown format %q (want one of %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Counters is one source's atomic activity counters, shared between the
// reading goroutine and concurrent /metrics scrapes. The zero value is
// unusable; construct with NewCounters. All methods are no-ops on a nil
// receiver so unwired decoders pay only a nil check.
type Counters struct {
	name, format string

	lines       atomic.Int64
	parseErrors atomic.Int64
	bytes       atomic.Int64
	rotations   atomic.Int64
	skipped     atomic.Int64
	checkpoints atomic.Int64
	pushBatches atomic.Int64
	// lastEvent is the max event time observed, as unix nanos, for the
	// event-time lag gauge.
	lastEvent atomic.Int64
}

// NewCounters returns a counter block labeled with the source's name
// (e.g. a file path, "push", "stdin") and format.
func NewCounters(name, format string) *Counters {
	return &Counters{name: name, format: format}
}

func (c *Counters) addLine(n int) {
	if c == nil {
		return
	}
	c.lines.Add(1)
	c.bytes.Add(int64(n))
}

func (c *Counters) addError() {
	if c == nil {
		return
	}
	c.parseErrors.Add(1)
}

func (c *Counters) addSkipped() {
	if c == nil {
		return
	}
	c.skipped.Add(1)
}

func (c *Counters) addRotation() {
	if c == nil {
		return
	}
	c.rotations.Add(1)
}

func (c *Counters) addCheckpoint() {
	if c == nil {
		return
	}
	c.checkpoints.Add(1)
}

// AddBatch counts one accepted push batch — exported for the HTTP push
// handler in internal/serve.
func (c *Counters) AddBatch() {
	if c == nil {
		return
	}
	c.pushBatches.Add(1)
}

func (c *Counters) observeEvent(t time.Time) {
	if c == nil {
		return
	}
	ns := t.UnixNano()
	for {
		old := c.lastEvent.Load()
		if ns <= old || c.lastEvent.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of one source's counters, the shape
// served on /v1/stats and rendered as smash_source_* metrics.
type Stats struct {
	// Name labels the source (file path, "push", "stdin").
	Name string `json:"name"`
	// Format is the source's line format.
	Format string `json:"format"`
	// Lines counts parsed lines (valid events); ParseErrors counts
	// malformed lines that were dropped.
	Lines       int64 `json:"lines"`
	ParseErrors int64 `json:"parseErrors"`
	// Bytes counts consumed line bytes (including separators).
	Bytes int64 `json:"bytes"`
	// Rotations counts detected file rotations and truncations.
	Rotations int64 `json:"rotations,omitempty"`
	// Skipped counts events dropped below the resume horizon (already
	// durably applied before a restart).
	Skipped int64 `json:"skipped,omitempty"`
	// Checkpoints counts persisted byte-offset checkpoints.
	Checkpoints int64 `json:"checkpoints,omitempty"`
	// PushBatches counts accepted HTTP push batches.
	PushBatches int64 `json:"pushBatches,omitempty"`
	// LagSeconds is wall-clock now minus the max event time observed —
	// how far the source's events trail real time. Negative values clamp
	// to zero; -1 means no event has been seen yet.
	LagSeconds float64 `json:"lagSeconds"`
}

// Stats snapshots the counters.
func (c *Counters) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Name:        c.name,
		Format:      c.format,
		Lines:       c.lines.Load(),
		ParseErrors: c.parseErrors.Load(),
		Bytes:       c.bytes.Load(),
		Rotations:   c.rotations.Load(),
		Skipped:     c.skipped.Load(),
		Checkpoints: c.checkpoints.Load(),
		PushBatches: c.pushBatches.Load(),
		LagSeconds:  -1,
	}
	if ns := c.lastEvent.Load(); ns != 0 {
		if lag := time.Since(time.Unix(0, ns)).Seconds(); lag > 0 {
			s.LagSeconds = lag
		} else {
			s.LagSeconds = 0
		}
	}
	return s
}

// Decoder streams requests from a reader in a line format, with strict
// error accounting: malformed lines are counted on the Counters (and the
// decoder's own tally) and skipped, never fatal. Only reader I/O errors
// propagate. Decoder implements stream.Source.
type Decoder struct {
	s    *bufio.Scanner
	f    Format
	c    *Counters
	errs int64
	// held is set when the scanner's buffer already holds the next line
	// (complete, or the final one at end of input), so Scan returns it
	// without reading.
	held bool
}

// NewDecoder returns a decoder over r in format f, accounting on c (nil
// disables accounting).
func NewDecoder(r io.Reader, f Format, c *Counters) *Decoder {
	d := &Decoder{s: bufio.NewScanner(r), f: f, c: c}
	d.s.Buffer(make([]byte, 0, 1<<16), 1<<20)
	d.s.Split(d.splitLines)
	return d
}

// splitLines is bufio.ScanLines, noting whether another line is held.
func (d *Decoder) splitLines(data []byte, atEOF bool) (int, []byte, error) {
	advance, token, err := bufio.ScanLines(data, atEOF)
	rest := data[advance:]
	d.held = bytes.IndexByte(rest, '\n') >= 0 || atEOF && len(rest) > 0
	return advance, token, err
}

// ReadBatch fills dst with well-formed requests: it reads until the first
// one, then takes only the lines the decoder already holds. It returns
// io.EOF at end of input.
func (d *Decoder) ReadBatch(dst []trace.Request) (int, error) {
	n := 0
	for n < len(dst) && (n == 0 || d.held) && d.s.Scan() {
		line := d.s.Text()
		req, err := d.f.Parse(line)
		switch {
		case err == nil:
			d.c.addLine(len(line) + 1)
			d.c.observeEvent(req.Time)
			dst[n] = req
			n++
		case errors.Is(err, ErrSkip):
		default:
			d.errs++
			d.c.addError()
		}
	}
	if n > 0 {
		return n, nil
	}
	if err := d.s.Err(); err != nil {
		return 0, err
	}
	return 0, io.EOF
}

// Read returns the next well-formed request, or io.EOF at end of input.
func (d *Decoder) Read() (trace.Request, error) {
	var one [1]trace.Request
	_, err := d.ReadBatch(one[:])
	return one[0], err
}

// Errors returns the number of malformed lines this decoder has dropped.
func (d *Decoder) Errors() int64 { return d.errs }

// tsvFormat adapts the trace TSV record grammar to the Format interface.
// Comment lines ("# trace NAME" headers and friends) are skippable, so a
// file written by trace.WriteTrace decodes cleanly.
type tsvFormat struct{}

func (tsvFormat) Name() string { return "tsv" }

func (tsvFormat) Parse(line string) (trace.Request, error) {
	if line == "" || strings.HasPrefix(line, "#") {
		return trace.Request{}, ErrSkip
	}
	req, err := trace.ParseRecord(line)
	if err != nil {
		return trace.Request{}, fmt.Errorf("tsv: %v: %w", err, ErrBadLine)
	}
	return req, nil
}

func (tsvFormat) Append(dst []byte, r *trace.Request) []byte {
	return trace.AppendRecord(dst, r)
}

// Project is the identity for TSV up to field sanitization: tabs and
// newlines inside fields become spaces (one record must stay one line),
// and a literal "-" becomes empty — the TSV grammar spells empty fields
// "-", so the dash itself is not representable.
func (tsvFormat) Project(r trace.Request) trace.Request {
	clean := func(s string) string {
		if s == "-" {
			return ""
		}
		if !strings.ContainsAny(s, "\t\n\r") {
			return s
		}
		return strings.NewReplacer("\t", " ", "\n", " ", "\r", " ").Replace(s)
	}
	r.Client = clean(r.Client)
	r.Host = clean(r.Host)
	r.ServerIP = clean(r.ServerIP)
	r.Path = clean(r.Path)
	r.Query = clean(r.Query)
	r.UserAgent = clean(r.UserAgent)
	r.Referrer = clean(r.Referrer)
	r.PayloadDigest = clean(r.PayloadDigest)
	r.Time = r.Time.UTC()
	return r
}
