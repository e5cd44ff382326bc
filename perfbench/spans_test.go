package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Overlapping children count once; a child running past its
		// parent is clipped to the parent.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"parent":     100 - 50,            // children cover 10..50 and 90..100
		"child":      20 + (30 - 10) + 30, // span 3 loses its grandchild's 10
		"grandchild": 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestSelfTimeAttachesShardsByRequest(t *testing.T) {
	// A fleet coordinator's shard sub-requests carry only the request
	// ID; they belong under the innermost enclosing span of that request.
	spans := []Span{
		{ID: 1, Req: "r", Name: "fleet.request", Start: 0, End: 100},
		{ID: 2, Req: "r", Parent: 1, Name: "fleet.coordinator", Start: 5, End: 95},
		{ID: 3, Req: "r", Name: "service.handler", Start: 10, End: 60},
		{ID: 4, Req: "r", Name: "service.handler", Start: 20, End: 80},
		{ID: 5, Req: "other", Name: "service.handler", Start: 0, End: 100},
	}
	got := selfTimes(spans)
	if got["fleet.coordinator"] != 90-70 {
		t.Errorf("coordinator self = %d, want 20 (shards cover 10..80)", got["fleet.coordinator"])
	}
	if got["fleet.request"] != 10 {
		t.Errorf("request self = %d, want 10", got["fleet.request"])
	}
	if got["service.handler"] != 50+60+100 {
		t.Errorf("handler self = %d", got["service.handler"])
	}
}

func TestRecorderLinksServerSpans(t *testing.T) {
	r := newRecorder()
	srv := httptest.NewServer(r.Wrap("service.handler", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(2 * time.Millisecond)
	})))
	defer srv.Close()
	sp := r.Begin("http.request", "req-1", 0)
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	sp.Inject(req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sp.End()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	var client, server Span
	for _, s := range spans {
		if s.Name == "http.request" {
			client = s
		} else {
			server = s
		}
	}
	if server.Parent != client.ID || server.Req != "req-1" {
		t.Fatalf("server span %+v not linked to client span %+v", server, client)
	}
	if self := selfTimes(spans); self["http.request"] >= time.Duration(client.dur()) {
		t.Fatalf("client self time %v does not exclude the handler", self["http.request"])
	}

	// Paused and nil recorders record nothing.
	r.off.Store(true)
	r.Begin("x", "", 0).End()
	var nilRec *Recorder
	nilRec.Begin("x", "", 0).End()
	if r.Len() != 2 || nilRec.Len() != 0 {
		t.Fatalf("paused or nil recorder recorded spans: %d, %d", r.Len(), nilRec.Len())
	}
}

func TestRungDeltas(t *testing.T) {
	rungs := []Rung{
		{Name: "kernel", NsPerUnit: 12000, AllocsUnit: 8, BytesUnit: 500},
		{Name: "engine", NsPerUnit: 19500, AllocsUnit: 10, BytesUnit: 1100},
		{Name: "eval", NsPerUnit: 21000, AllocsUnit: 10.5, BytesUnit: 1400},
	}
	d := ladderDeltas(rungs)
	if d[0].HasPrev {
		t.Fatal("the bottom rung has a delta")
	}
	if !d[1].HasPrev || d[1].DNs != 7500 || d[1].DAllocs != 2 || d[1].DBytes != 600 {
		t.Fatalf("engine delta = %+v", d[1])
	}
	if d[2].DNs != 1500 || d[2].DAllocs != 0.5 || d[2].DBytes != 300 || d[2].Ns != 21000 {
		t.Fatalf("eval delta = %+v", d[2])
	}
}
