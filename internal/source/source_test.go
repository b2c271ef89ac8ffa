package source

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"smash/internal/trace"
)

// sameRequest compares requests with Time.Equal (representation-blind)
// and plain equality everywhere else.
func sameRequest(a, b trace.Request) bool {
	if !a.Time.Equal(b.Time) {
		return false
	}
	a.Time, b.Time = time.Time{}, time.Time{}
	return a == b
}

// trickyRequests is the round-trip gauntlet: every field empty, "-"
// literals, separator bytes inside fields, IP-vs-hostname vhosts, query
// strings with reserved characters, control bytes and non-ASCII text.
func trickyRequests() []trace.Request {
	at := time.Date(2012, 3, 1, 9, 30, 15, 123456789, time.FixedZone("X", 3600))
	return []trace.Request{
		{Time: time.Unix(0, 0)}, // epoch, every field empty
		{Time: at, Client: "10.0.0.7", Host: "www.example.com", Path: "/index.html", Status: 200},
		{Time: at, Client: "-", Host: "-", Path: "-", UserAgent: "-", Referrer: "-"},
		{Time: at, Client: "c1", ServerIP: "203.0.113.9", Path: "/dl/setup.exe", Query: "id=7&k=v", Status: 404},
		{Time: at, Client: "c2", Host: "h.test", Path: "/a b/c", Query: "q= x?y&z", Status: 500,
			UserAgent: `Mozilla/5.0 (X11; "quoted") tab	here`, Referrer: "ref.example"},
		{Time: at, Client: "bad client [x]", Host: `vh"ost`, Path: "", Query: "", Status: 0},
		{Time: at, Client: "c3", Host: "héllo.test", Path: "/ünicode/ø", UserAgent: "ua-日本語",
			Referrer: "http://user:pw@ref.test:8080/some/path?x=1", Status: 302},
		{Time: at, Client: "c4", Host: "h2.test", Path: "/x://y/z", Status: 200},
		{Time: at, Client: "c5", Referrer: "[2001:db8::1]:443", Path: "/p", Status: 200},
		{Time: at, Client: "c6", Host: "h3.test", Path: "/nl", UserAgent: "line1\nline2\rline3",
			PayloadDigest: "sha1:da39a3ee", Status: 200},
		{Time: at, Client: "c7", Host: "h4.test", Path: "/ctl", UserAgent: "bell\x07end", Status: 200},
		{Time: time.Unix(0, 1).UTC(), Client: "c8", ServerIP: "2001:db8::5", Path: "/v6", Status: 204},
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, name := range Names() {
		f, err := New(name, Options{Host: "static.test"})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		for i, r := range trickyRequests() {
			p := f.Project(r)
			if pp := f.Project(p); !sameRequest(p, pp) {
				t.Errorf("%s[%d]: Project not idempotent:\n  once:  %+v\n  twice: %+v", name, i, p, pp)
			}
			line := string(f.Append(nil, &p))
			if strings.ContainsAny(line, "\n\r") {
				t.Errorf("%s[%d]: emitted line contains a line break: %q", name, i, line)
			}
			got, err := f.Parse(line)
			if err != nil {
				t.Errorf("%s[%d]: Parse(Append(Project)) failed on %q: %v", name, i, line, err)
				continue
			}
			if !sameRequest(got, p) {
				t.Errorf("%s[%d]: round trip diverged on %q:\n  want %+v\n  got  %+v", name, i, line, p, got)
			}
		}
	}
}

func TestNewUnknownFormat(t *testing.T) {
	if _, err := New("xml", Options{}); err == nil {
		t.Fatal("New(xml) succeeded; want an error naming the valid formats")
	} else if !strings.Contains(err.Error(), "combined") {
		t.Fatalf("error %q does not list the valid formats", err)
	}
}

func TestCLFParseGolden(t *testing.T) {
	utc := func(y int, mo time.Month, d, h, mi, s int) time.Time {
		return time.Date(y, mo, d, h, mi, s, 0, time.UTC)
	}
	cases := []struct {
		name     string
		combined bool
		host     string
		line     string
		want     trace.Request
	}{
		{
			name: "common three tokens, static host",
			host: "srv.example.com",
			line: `203.0.113.9 - frank [10/Oct/2000:13:55:36 -0700] "GET /apache_pb.gif HTTP/1.0" 200 2326`,
			want: trace.Request{Time: utc(2000, 10, 10, 20, 55, 36), Client: "203.0.113.9",
				Host: "srv.example.com", Path: "/apache_pb.gif", Status: 200},
		},
		{
			name: "vhost token names the server",
			line: `www.example.com 10.1.2.3 - - [01/Mar/2012:00:00:05 +0000] "GET /a?x=1&y=2 HTTP/1.1" 404 -`,
			want: trace.Request{Time: utc(2012, 3, 1, 0, 0, 5), Client: "10.1.2.3",
				Host: "www.example.com", Path: "/a", Query: "x=1&y=2", Status: 404},
		},
		{
			name: "IP vhost lands in ServerIP",
			line: `203.0.113.77 10.1.2.3 - - [01/Mar/2012:00:00:05 +0000] "GET / HTTP/1.1" 200 17`,
			want: trace.Request{Time: utc(2012, 3, 1, 0, 0, 5), Client: "10.1.2.3",
				ServerIP: "203.0.113.77", Path: "/", Status: 200},
		},
		{
			name: "absolute URI target names the server when no vhost",
			line: `- 10.0.0.1 - - [01/Mar/2012:08:30:00 +0000] "GET http://evil.test/mal.exe?x=1 HTTP/1.1" 200 5`,
			want: trace.Request{Time: utc(2012, 3, 1, 8, 30, 0), Client: "10.0.0.1",
				Host: "evil.test", Path: "/mal.exe", Query: "x=1", Status: 200},
		},
		{
			name: "dash status is zero",
			line: `h.test c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" - -`,
			want: trace.Request{Time: utc(2012, 3, 1, 8, 30, 0), Client: "c", Host: "h.test", Path: "/"},
		},
		{
			name:     "combined referer and user-agent",
			combined: true,
			line:     `h.test c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 99 "https://u:p@ref.test:8443/lp?a=b" "Mozilla/5.0 (X11; \"U\"; tab\there)"`,
			want: trace.Request{Time: utc(2012, 3, 1, 8, 30, 0), Client: "c", Host: "h.test",
				Path: "/", Status: 200, Referrer: "ref.test", UserAgent: "Mozilla/5.0 (X11; \"U\"; tab\there)"},
		},
		{
			name:     "combined dash referer and dash agent stay empty",
			combined: true,
			line:     `h.test c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 99 "-" "-"`,
			want: trace.Request{Time: utc(2012, 3, 1, 8, 30, 0), Client: "c", Host: "h.test",
				Path: "/", Status: 200},
		},
		{
			name: "rooted path containing :// stays a path",
			line: `h.test c - - [01/Mar/2012:08:30:00 +0000] "GET /redir?to=http://x/y HTTP/1.1" 200 -`,
			want: trace.Request{Time: utc(2012, 3, 1, 8, 30, 0), Client: "c", Host: "h.test",
				Path: "/redir", Query: "to=http://x/y", Status: 200},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := "common"
			if tc.combined {
				name = "combined"
			}
			f, err := New(name, Options{Host: tc.host})
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Parse(tc.line)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.line, err)
			}
			if !sameRequest(got, tc.want) {
				t.Errorf("Parse(%q):\n  want %+v\n  got  %+v", tc.line, tc.want, got)
			}
		})
	}
}

func TestCLFParseMalformed(t *testing.T) {
	f, err := New("combined", Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		`one two three four five [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 -`, // 5 pre tokens
		`h c [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 - "-" "-"`,             // 2 pre tokens
		`h c - - [not a date] "GET / HTTP/1.1" 200 - "-" "-"`,
		`h c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1 200 - "-" "-"`, // unterminated-ish quotes
		`h c - - [01/Mar/2012:08:30:00 +0000] "no-spaces" 200 - "-" "-"`,     // bad request line
		`h c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" twelve - "-" "-"`,
		`h c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 12x "-" "-"`,
		`h c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 -`,                  // combined missing ref/ua
		`h c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 - "-" "-" trailing`, // trailing junk
		`h c - - [01/Mar/2012:08:30:00 +0000] "GET / HTTP/1.1" 200 - "-" "bad \q escape"`,
	}
	for _, line := range lines {
		if _, err := f.Parse(line); !errors.Is(err, ErrBadLine) {
			t.Errorf("Parse(%q) = %v; want ErrBadLine", line, err)
		}
	}
	for _, line := range []string{"", "   ", "\t"} {
		if _, err := f.Parse(line); !errors.Is(err, ErrSkip) {
			t.Errorf("Parse(%q) = %v; want ErrSkip", line, err)
		}
	}
}

func TestJSONLTimeUnits(t *testing.T) {
	f, err := New("jsonl", Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		raw  string
		want time.Time
	}{
		{`{"ts":"2012-03-01T09:30:15.25Z","client":"c"}`, time.Date(2012, 3, 1, 9, 30, 15, 250000000, time.UTC)},
		{`{"ts":"2012-03-01T10:30:15+01:00","client":"c"}`, time.Date(2012, 3, 1, 9, 30, 15, 0, time.UTC)},
		{`{"ts":1330594215,"client":"c"}`, time.Unix(1330594215, 0).UTC()},
		{`{"ts":1330594215123,"client":"c"}`, time.Unix(1330594215, 123000000).UTC()},
		{`{"ts":1330594215123456,"client":"c"}`, time.Unix(1330594215, 123456000).UTC()},
		{`{"ts":1330594215123456789,"client":"c"}`, time.Unix(1330594215, 123456789).UTC()},
		{`{"ts":1330594215.5,"client":"c"}`, time.Unix(1330594215, 500000000).UTC()},
	}
	for _, tc := range cases {
		got, err := f.Parse(tc.raw)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.raw, err)
			continue
		}
		if !got.Time.Equal(tc.want) {
			t.Errorf("Parse(%q).Time = %v; want %v", tc.raw, got.Time, tc.want)
		}
	}
}

func TestJSONLCustomMapping(t *testing.T) {
	f, err := New("jsonl", Options{JSONLMap: map[string]string{
		"time":   "@timestamp",
		"client": "remote_addr",
		"host":   "vhost",
	}})
	if err != nil {
		t.Fatal(err)
	}
	line := `{"@timestamp":"2012-03-01T00:00:05Z","remote_addr":"10.0.0.9","vhost":"h.test","path":"/x","status":"404"}`
	got, err := f.Parse(line)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Request{Time: time.Date(2012, 3, 1, 0, 0, 5, 0, time.UTC),
		Client: "10.0.0.9", Host: "h.test", Path: "/x", Status: 404}
	if !sameRequest(got, want) {
		t.Fatalf("Parse(%q):\n  want %+v\n  got  %+v", line, want, got)
	}
	// The default key must not bleed through once remapped.
	if got, err := f.Parse(`{"@timestamp":1330560000,"client":"wrong"}`); err != nil || got.Client != "" {
		t.Fatalf("remapped client read the default key: %+v, %v", got, err)
	}
	// Round trip through the remapped emitter.
	re, err := f.Parse(string(f.Append(nil, &want)))
	if err != nil || !sameRequest(re, want) {
		t.Fatalf("remapped round trip: %+v, %v", re, err)
	}
}

func TestJSONLMappingErrors(t *testing.T) {
	cases := []map[string]string{
		{"nonsense": "x"},            // unknown logical field
		{"client": ""},               // empty key
		{"client": "x", "host": "x"}, // duplicate key
		{"client": "host"},           // collides with a default key
	}
	for _, m := range cases {
		if _, err := New("jsonl", Options{JSONLMap: m}); err == nil {
			t.Errorf("New(jsonl, %v) succeeded; want an error", m)
		}
	}
}

func TestJSONLMalformed(t *testing.T) {
	f, err := New("jsonl", Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		`not json`,
		`{"client":"c"}`,               // missing time
		`{"ts":true}`,                  // bad time type
		`{"ts":"yesterday"}`,           // bad time string
		`{"ts":1330594215,"client":7}`, // non-string field
		`{"ts":1330594215,"status":"abc"}`,
	}
	for _, line := range lines {
		if _, err := f.Parse(line); !errors.Is(err, ErrBadLine) {
			t.Errorf("Parse(%q) = %v; want ErrBadLine", line, err)
		}
	}
	for _, line := range []string{"", "  ", "# header"} {
		if _, err := f.Parse(line); !errors.Is(err, ErrSkip) {
			t.Errorf("Parse(%q) = %v; want ErrSkip", line, err)
		}
	}
}

func TestDecoderErrorAccounting(t *testing.T) {
	f, err := New("common", Options{Host: "h.test"})
	if err != nil {
		t.Fatal(err)
	}
	input := strings.Join([]string{
		`h.test c1 - - [01/Mar/2012:08:30:00 +0000] "GET /a HTTP/1.1" 200 -`,
		``,
		`GARBAGE GARBAGE GARBAGE`,
		`h.test c2 - - [01/Mar/2012:08:30:01 +0000] "GET /b HTTP/1.1" 200 -`,
		`   `,
		`also not a log line at all really [ huh`,
		`h.test c3 - - [01/Mar/2012:08:30:02 +0000] "GET /c HTTP/1.1" 200 -`,
	}, "\n") + "\n"

	ctrs := NewCounters("test-input", "common")
	d := NewDecoder(strings.NewReader(input), f, ctrs)
	var clients []string
	for {
		req, err := d.Read()
		if err != nil {
			if err.Error() != "EOF" {
				t.Fatalf("Read: %v", err)
			}
			break
		}
		clients = append(clients, req.Client)
	}
	if got, want := strings.Join(clients, ","), "c1,c2,c3"; got != want {
		t.Errorf("decoded clients %q; want %q", got, want)
	}
	if d.Errors() != 2 {
		t.Errorf("Errors() = %d; want 2", d.Errors())
	}
	st := ctrs.Stats()
	if st.Lines != 3 || st.ParseErrors != 2 {
		t.Errorf("counters lines=%d parseErrors=%d; want 3, 2", st.Lines, st.ParseErrors)
	}
	if st.Bytes == 0 {
		t.Errorf("counters bytes = 0; want > 0")
	}
	if st.LagSeconds < 0 {
		t.Errorf("LagSeconds = %v after events; want >= 0", st.LagSeconds)
	}
}

// ReadBatch blocks only for its first event: after that it returns the
// lines the decoder already holds and leaves a partial line for later.
func TestDecoderReadBatchTakesHeldLines(t *testing.T) {
	pr, pw := io.Pipe()
	d := NewDecoder(pr, tsvFormat{}, nil)
	go func() {
		pw.Write([]byte(tsvLine(1, "a") + "# comment\n" + tsvLine(2, "b") + tsvLine(3, "c")[:9]))
		pw.Write([]byte(tsvLine(3, "c")[9:] + tsvLine(4, "d")[:5]))
		pw.Write([]byte(tsvLine(4, "d")[5:]))
		pw.Close()
	}()
	buf := make([]trace.Request, 8)
	var batches []string
	for {
		n, err := d.ReadBatch(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var clients []string
		for _, r := range buf[:n] {
			clients = append(clients, r.Client)
		}
		batches = append(batches, strings.Join(clients, ","))
	}
	if got, want := strings.Join(batches, " "), "a,b c d"; got != want {
		t.Errorf("batches %q; want %q", got, want)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.addLine(5)
	c.addError()
	c.addSkipped()
	c.addRotation()
	c.addCheckpoint()
	c.AddBatch()
	c.observeEvent(time.Now())
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil Counters Stats = %+v; want zero", s)
	}
}
