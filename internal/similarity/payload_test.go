package similarity

import (
	"testing"
	"time"

	"smash/internal/trace"
)

func TestBuildPayloadGraph(t *testing.T) {
	tr := &trace.Trace{}
	add := func(client, host, digest string) {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: time.Unix(0, 0), Client: client, Host: host, ServerIP: "1.1.1.1",
			Path: "/f", Status: 200, PayloadDigest: digest,
		})
	}
	// Two download servers serve the same binary under different names.
	add("bot", "dl1.com", "sha1:payload-A")
	add("bot", "dl2.com", "sha1:payload-A")
	// A benign server with its own content.
	add("u", "site.com", "sha1:other")
	idx := trace.BuildIndexOf(tr, trace.FieldPayloads)
	sg := BuildPayloadGraph(idx, Options{})
	a, b := sg.IDs["dl1.com"], sg.IDs["dl2.com"]
	connected := false
	sg.G.Neighbors(a, func(v int, w float64) {
		if v == b && w == 1.0 {
			connected = true
		}
	})
	if !connected {
		t.Error("shared-payload pair not connected")
	}
	site := sg.IDs["site.com"]
	sg.G.Neighbors(site, func(v int, w float64) {
		t.Errorf("site.com connected to %s", sg.Names[v])
	})
}

func TestBuildPayloadGraphNoDigests(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{
		{Time: time.Unix(0, 0), Client: "c", Host: "a.com", Path: "/x", Status: 200},
		{Time: time.Unix(0, 0), Client: "c", Host: "b.com", Path: "/x", Status: 200},
	}}
	idx := trace.BuildIndexOf(tr, trace.FieldPayloads)
	if sg := BuildPayloadGraph(idx, Options{}); sg.G.EdgeCount() != 0 {
		t.Error("edges without digests")
	}
}
