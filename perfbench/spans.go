package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers carrying the benchmark's span identity across loopback HTTP.
// The request ID header is the service's own, which the fleet
// coordinator forwards into its shard sub-requests.
const (
	spanHeader  = "X-Perfbench-Span"
	reqIDHeader = "X-Mppm-Request-Id"
)

// Span is one timed call the benchmark made into a layer.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: none recorded
	Req    string `json:"req"`    // request ID shared by a request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// is the untraced mode: every method is a no-op.
type Recorder struct {
	epoch time.Time
	off   atomic.Bool // pauses recording
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// open is a started span.
type open struct {
	r      *Recorder
	id     int64
	parent int64
	req    string
	name   string
	start  time.Time
}

// Begin starts a span; parent 0 starts a root.
func (r *Recorder) Begin(name, req string, parent int64) open {
	if r == nil || r.off.Load() {
		return open{}
	}
	return open{r: r, id: r.next.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// End records the span.
func (o open) End() {
	if o.r == nil {
		return
	}
	end := time.Now()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, Span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(o.r.epoch)), End: int64(end.Sub(o.r.epoch)),
	})
	o.r.mu.Unlock()
}

// Inject stamps o's identity on an outgoing request.
func (o open) Inject(h http.Header) {
	if o.r == nil {
		return
	}
	h.Set(spanHeader, strconv.FormatInt(o.id, 10))
	h.Set(reqIDHeader, o.req)
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Len is the number of spans recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Wrap records a server-side span named name around h. The parent
// comes from the client's span header when present; a sub-request that
// carries only the request ID (a fleet shard) is attached to its
// enclosing span by resolveParents.
func (r *Recorder) Wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		sp := r.Begin(name, req.Header.Get(reqIDHeader), parent)
		h.ServeHTTP(w, req)
		sp.End()
	})
}

// WriteJSON writes the spans out, one JSON object per line.
func (r *Recorder) WriteJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// resolveParents attaches each parentless span that carries a request
// ID to the innermost other span of the same request that encloses it
// in time: a shard a fleet coordinator sent on the request's behalf.
func resolveParents(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	for i := range out {
		s := &out[i]
		if s.Parent != 0 || s.Req == "" {
			continue
		}
		best := -1
		for j, c := range spans {
			if c.ID == s.ID || c.Req != s.Req || c.Start > s.Start || c.End < s.End {
				continue
			}
			if best < 0 || c.Start > spans[best].Start {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its children cover. Overlapping children (a
// fleet's parallel shards) count once.
func selfTimes(spans []Span) map[string]time.Duration {
	spans = resolveParents(spans)
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.dur() - covered(s, kids[s.ID]))
	}
	return out
}

// covered is how much of parent's interval the union of children
// spans, clipped to the parent.
func covered(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// Rung is one step of the layer ladder: the same work fed through one
// more layer than the rung before it, normalized per unit (a
// prediction or a row).
type Rung struct {
	Name       string
	Units      int // units of work per op
	Ops        int
	NsPerUnit  float64
	AllocsUnit float64
	BytesUnit  float64
}

// RungDelta is what a rung adds over the rung below it.
type RungDelta struct {
	Name                 string
	Ns, Allocs, Bytes    float64
	DNs, DAllocs, DBytes float64
	HasPrev              bool
}

// ladderDeltas subtracts each rung from the one listed before it: what
// the rung's extra layer costs per unit of the same work.
func ladderDeltas(rungs []Rung) []RungDelta {
	out := make([]RungDelta, len(rungs))
	for i, r := range rungs {
		d := RungDelta{Name: r.Name, Ns: r.NsPerUnit, Allocs: r.AllocsUnit, Bytes: r.BytesUnit}
		if i > 0 {
			p := rungs[i-1]
			d.HasPrev = true
			d.DNs, d.DAllocs, d.DBytes = r.NsPerUnit-p.NsPerUnit, r.AllocsUnit-p.AllocsUnit, r.BytesUnit-p.BytesUnit
		}
		out[i] = d
	}
	return out
}

// printLadder writes a rung table with per-rung deltas.
func printLadder(w io.Writer, title string, rungs []Rung) {
	fmt.Fprintf(w, "# ladder %s\n", title)
	fmt.Fprintf(w, "#   %-16s %12s %10s %12s %12s %10s %12s\n",
		"rung", "ns/unit", "allocs", "B/unit", "Δns", "Δallocs", "ΔB")
	for _, d := range ladderDeltas(rungs) {
		if d.HasPrev {
			fmt.Fprintf(w, "#   %-16s %12.0f %10.1f %12.0f %+12.0f %+10.1f %+12.0f\n",
				d.Name, d.Ns, d.Allocs, d.Bytes, d.DNs, d.DAllocs, d.DBytes)
		} else {
			fmt.Fprintf(w, "#   %-16s %12.0f %10.1f %12.0f %12s %10s %12s\n",
				d.Name, d.Ns, d.Allocs, d.Bytes, "-", "-", "-")
		}
	}
}
