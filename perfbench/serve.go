package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mppm "repro"
	"repro/internal/service"
	"repro/internal/wire"
)

// The serve workload's traffic over serveConns connections: a closed
// loop, and an open loop at a fixed arrival schedule. No traffic sample
// of the service exists to copy, so each figure is derived from costs
// measured on this path instead; the basis is given beside it.
const (
	// serveConns is nproc on the 2-core host the benchmark was sized on:
	// one client process with at most one connection per core.
	serveConns = 2
	// refRate, the open-loop rate p50 and p99 are reported at, is about
	// a tenth of the closed loop's 2,400 req/s on that host, so a
	// request seldom queues behind another.
	refRate = 250.0
	// limitMS, the p99 limit that defines max_rps, is about one full
	// 64-mix x six-config sweep batch (8.3 ms measured): an interactive
	// request may wait behind roughly one design-space sweep, and no
	// more. It is twenty times the single-mix p99 of 0.47 ms.
	limitMS      = 10.0
	abortLagMS   = 50.0 // a trial whose sends fall this far behind is overloaded
	trialSeconds = 0.5
	searchRes    = 0.03 // max_rps resolution, as a share of the rate
	// sweepMixes makes a small sweep 24 rows (x six configs), a
	// sixteenth of the sweep grid. Its row work, 24 predictions at the
	// grid's 22 us each, is several times a single-mix request, so the
	// per-row encoding that JSON, NDJSON and wire differ in is most of
	// its cost.
	sweepMixes = 4
	poolMixes  = 12000
)

// Request classes and their shares of schedule slots. A duplicate slot
// sends the same small sweep on both connections at the same moment.
type reqClass int

const (
	single reqClass = iota // one-mix predict, buffered JSON
	sweepJSON
	sweepNDJSON
	sweepWire
	duplicate
	numClasses
)

// classShare gives each of the five paths about a fifth of the closed
// loop's busy time, from their costs on the 2-core host (p50 0.22 ms a
// single request, 1.8-2.0 ms a small sweep, 3.5 ms of connection time a
// duplicate pair), so a regression of r in any one path moves
// throughput by about r/5. Each run reports the shares it saw as
// serve.<class>.busy_share. Single requests stay most of the requests.
var classShare = [numClasses]float64{0.72, 0.08, 0.08, 0.08, 0.04}

var classNames = [numClasses]string{"single", "sweep_json", "sweep_ndjson", "sweep_wire", "duplicate"}

type serveReq struct {
	class  reqClass
	mixes  []mppm.Mix
	sweep  bool // all six configs, else the default config
	body   []byte
	ct     string
	accept string
}

// generator deals requests from the seeded stream.
type generator struct {
	e    *env
	rng  *rand.Rand
	pool []mppm.Mix // distinct mixes for single requests
	next int
}

func newGenerator(e *env) (*generator, error) {
	pool, err := mppm.RandomMixes(poolMixes, cores, e.subSeed(2))
	if err != nil {
		return nil, err
	}
	return &generator{e: e, rng: rand.New(rand.NewSource(e.subSeed(3))), pool: pool}, nil
}

func (g *generator) mix() mppm.Mix {
	m := g.pool[g.next%len(g.pool)]
	g.next++
	return m
}

func (g *generator) draw() *serveReq {
	u := g.rng.Float64()
	c := single
	for acc := 0.0; c < numClasses-1; c++ {
		if acc += classShare[c]; u < acc {
			break
		}
	}
	if c == single {
		m := g.mix()
		body, _ := json.Marshal(service.EvalRequest{Mix: m})
		return &serveReq{class: c, mixes: []mppm.Mix{m}, body: body, ct: "application/json"}
	}
	r := &serveReq{class: c, sweep: true, ct: "application/json"}
	mixes := make([][]string, sweepMixes)
	for i := range mixes {
		m := mppm.Mix(g.mix())
		r.mixes = append(r.mixes, m)
		mixes[i] = m
	}
	er := service.EvalRequest{Mixes: mixes, Configs: g.e.names}
	switch c {
	case sweepNDJSON:
		er.Stream = true
		r.body, _ = json.Marshal(er)
	case sweepWire, duplicate:
		er.Format = "wire"
		r.body, r.ct, r.accept = wire.EncodeRequest(er), wire.ContentType, wire.ContentType
	default:
		r.body, _ = json.Marshal(er)
	}
	return r
}

// slot is one scheduled send.
type slot struct {
	due time.Duration
	req *serveReq
}

func (g *generator) schedule(rate float64, dur time.Duration) []slot {
	n := int(rate * dur.Seconds())
	out := make([]slot, 0, n+1)
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * 1e9)
		r := g.draw()
		out = append(out, slot{due, r})
		if r.class == duplicate {
			out = append(out, slot{due, r})
		}
	}
	return out
}

// response is one completed request, kept for checking after the
// timed window so decoding does not load the system under test.
type response struct {
	req    *serveReq
	status int
	body   []byte
}

// trial runs one open-loop schedule. It stops sending once the sends
// fall abortLagMS behind (the backlog is growing) and reports that.
func trial(ctx context.Context, e *env, hc *http.Client, url string, slots []slot) (arr []Arrival, resp []response, aborted bool) {
	arr = make([]Arrival, len(slots))
	resp = make([]response, len(slots))
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(slots) {
					return
				}
				due := start.Add(slots[i].due)
				idle := false
				if wait := time.Until(due); wait > 0 {
					idle = true
					time.Sleep(wait)
				}
				sent := time.Now()
				if ms(sent.Sub(due)) > abortLagMS {
					stop.Store(true)
				}
				sp := e.rec.Begin("http.request", newReqID("serve"), 0)
				status, body := post(ctx, hc, url, slots[i].req, sp)
				sp.End()
				arr[i] = Arrival{Due: due, Sent: sent, Done: time.Now(), Idle: idle, OK: status/100 == 2}
				resp[i] = response{slots[i].req, status, body}
			}
		}()
	}
	wg.Wait()
	n := int(min(next.Load(), int64(len(slots))))
	if stop.Load() {
		// Drop the slots no client took; a slot taken is attempted.
		taken := 0
		for i := range arr[:n] {
			if !arr[i].Done.IsZero() {
				arr[taken], resp[taken] = arr[i], resp[i]
				taken++
			}
		}
		return arr[:taken], resp[:taken], true
	}
	return arr[:n], resp[:n], false
}

func post(ctx context.Context, hc *http.Client, url string, r *serveReq, sp open) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/eval", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", r.ct)
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	sp.Inject(req.Header)
	res, err := hc.Do(req)
	if err != nil {
		return 0, nil
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return 0, nil
	}
	return res.StatusCode, body
}

// trialPasses reports whether a trial met the latency limit without a
// growing backlog.
func trialPasses(arr []Arrival, aborted bool) bool {
	if aborted || len(arr) == 0 {
		return false
	}
	lat, _ := openLoopStats(arr, 99)
	return lat.Tail <= limitMS
}

// served is one closed-loop request's outcome.
type served struct {
	latMS float64
	resp  response
}

// closedLoop keeps both connections busy for dur: each client sends its
// next request as soon as its last one completes. A duplicate is held
// until both clients have taken a copy, then sent by both at once.
func closedLoop(ctx context.Context, e *env, hc *http.Client, url string, g *generator, dur time.Duration) []served {
	type item struct {
		req *serveReq
		bar *sync.WaitGroup
	}
	items := make(chan item)
	go func() {
		defer close(items)
		for end := time.Now().Add(dur); time.Now().Before(end); {
			r := g.draw()
			if r.class != duplicate {
				items <- item{req: r}
				continue
			}
			bar := &sync.WaitGroup{}
			bar.Add(serveConns)
			for c := 0; c < serveConns; c++ {
				items <- item{r, bar}
			}
		}
	}()
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				if it.bar != nil {
					it.bar.Done()
					it.bar.Wait()
				}
				sp := e.rec.Begin("http.request", newReqID("serve"), 0)
				t0 := time.Now()
				status, body := post(ctx, hc, url, it.req, sp)
				d := time.Since(t0)
				sp.End()
				lat := ms(d)
				if status/100 != 2 {
					lat = math.Inf(1)
				}
				mu.Lock()
				out = append(out, served{lat, response{it.req, status, body}})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

var reqSeq atomic.Int64

// newReqID mints a request ID shared by one request's spans.
func newReqID(prefix string) string { return prefix + "-" + strconv.FormatInt(reqSeq.Add(1), 10) }

// runServe measures /v1/eval on the warm replica over two
// connections: a closed loop that keeps both busy (throughput and
// per-request latency), then an open loop at the reference rate
// (latency from each request's due time). After each phase, outside
// the timed window, every response body is checked against in-process
// evaluation.
func runServe(ctx context.Context, e *env, f *fixture, dur time.Duration, g *generator) (*outcome, error) {
	o := &outcome{}
	hc := newClient(serveConns)
	defer hc.CloseIdleConnections()
	url := f.warm.srv.URL
	before := engineOf(f.warm.sys)
	scr0 := scrape(ctx, url)

	closedDur := dur * 3 / 5
	t0 := time.Now()
	done := closedLoop(ctx, e, hc, url, g, closedDur)
	o.elapsed = time.Since(t0)
	// Counters cover the closed loop only: the checks below run their
	// own large in-process batches.
	o.scrape = scrapeDelta(scr0, scrape(ctx, url))
	resp := make([]response, len(done))
	for i, d := range done {
		o.lat = append(o.lat, d.latMS)
		o.classLat[d.resp.req.class] = append(o.classLat[d.resp.req.class], d.latMS)
		resp[i] = d.resp
		if !math.IsInf(d.latMS, 1) {
			o.units++
		}
	}
	good, err := checkResponses(ctx, e, f.warm.sys, resp)
	if err != nil {
		return nil, err
	}
	o.checks.add(good)
	o.ops = len(done)

	arr, oresp, _ := trial(ctx, e, hc, url, g.schedule(refRate, dur-closedDur))
	if good, err = checkResponses(ctx, e, f.warm.sys, oresp); err != nil {
		return nil, err
	}
	o.checks.add(good)
	for _, a := range arr {
		o.open = append(o.open, a)
	}
	o.computes = engineOf(f.warm.sys).minus(before)
	return o, nil
}

// searchMaxRPS finds the highest open-loop arrival rate that meets the
// latency limit without a growing backlog: it doubles from the
// reference rate until a rate fails, then bisects to searchRes, within
// budget. A failed trial is repeated once before it counts, so one
// stall on a shared machine does not end the search.
func searchMaxRPS(ctx context.Context, e *env, f *fixture, g *generator, budget time.Duration, checks *Tally) (rate float64, trials int, err error) {
	hc := newClient(serveConns)
	defer hc.CloseIdleConnections()
	lo, hi := refRate/2, 0.0
	for end := time.Now().Add(budget); time.Now().Before(end) && !(hi > 0 && hi/lo <= 1+searchRes); {
		r := 2 * lo
		if hi > 0 {
			r = math.Sqrt(lo * hi)
		}
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			arr, resp, aborted := trial(ctx, e, hc, f.warm.srv.URL, g.schedule(r, time.Duration(trialSeconds*1e9)))
			good, err := checkResponses(ctx, e, f.warm.sys, resp)
			if err != nil {
				return 0, trials, err
			}
			checks.add(good)
			pass = trialPasses(arr, aborted)
			trials++
			time.Sleep(20 * time.Millisecond) // let the trial's backlog drain
		}
		if pass {
			lo = r
		} else {
			hi = r
		}
	}
	return lo, trials, nil
}

// checkBatch is how many responses checkResponses evaluates at once, so
// the reference grid it holds does not grow with the host's throughput.
const checkBatch = 256

// checkResponses decodes every response and compares its rows with
// in-process evaluation of the same mixes.
func checkResponses(ctx context.Context, e *env, sys *mppm.System, rs []response) (Tally, error) {
	var t Tally
	for len(rs) > 0 {
		n := min(len(rs), checkBatch)
		c, err := checkBatchOf(ctx, e, sys, rs[:n])
		if err != nil {
			return t, err
		}
		t.add(c)
		rs = rs[n:]
	}
	return t, nil
}

func checkBatchOf(ctx context.Context, e *env, sys *mppm.System, rs []response) (Tally, error) {
	var t Tally
	var singles, sweeps []mppm.Mix
	for _, r := range rs {
		if r.req.sweep {
			sweeps = append(sweeps, r.req.mixes...)
		} else {
			singles = append(singles, r.req.mixes...)
		}
	}
	want := make(map[string]*mppm.Prediction)
	fill := func(mixes []mppm.Mix, cfgs ...mppm.LLCConfig) error {
		if len(mixes) == 0 {
			return nil
		}
		res, err := sys.Eval(ctx, mppm.NewRequest(mppm.KindPredict, mixes, mppm.WithConfigs(cfgs...)))
		if err != nil {
			return err
		}
		for i := range res.Scenarios {
			sc := &res.Scenarios[i]
			want[sc.Mix.Key()+"@"+sc.Config.Name] = sc.Prediction
		}
		return nil
	}
	if err := fill(singles, mppm.DefaultLLC()); err != nil {
		return t, err
	}
	if err := fill(sweeps, e.cfgs...); err != nil {
		return t, err
	}
	for _, r := range rs {
		rows, err := decodeRows(r)
		good := err == nil && r.status/100 == 2
		nWant := len(r.req.mixes)
		if r.req.sweep {
			nWant *= len(e.cfgs)
		}
		good = good && len(rows) == nWant
		for _, row := range rows {
			p := want[mppm.Mix(row.Mix).Key()+"@"+row.Config]
			good = good && row.Error == "" && row.Prediction != nil && p != nil &&
				math.Float64bits(row.Prediction.STP) == math.Float64bits(p.STP) &&
				math.Float64bits(row.Prediction.ANTT) == math.Float64bits(p.ANTT) &&
				sameFloats(row.Prediction.Slowdown, p.Slowdown)
		}
		t.ok(good)
	}
	return t, nil
}

// decodeRows decodes a /v1/eval response body in whichever encoding
// the request asked for.
func decodeRows(r response) ([]service.ScenarioResult, error) {
	switch r.req.class {
	case sweepNDJSON:
		var rows []service.ScenarioResult
		sc := bufio.NewScanner(bytes.NewReader(r.body))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var row service.ScenarioResult
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return rows, sc.Err()
	case sweepWire, duplicate:
		rd, err := wire.NewReader(bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		var rows []service.ScenarioResult
		for {
			row, err := rd.Next()
			if err == io.EOF {
				return rows, nil
			}
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	default:
		var doc service.EvalResponse
		if err := json.Unmarshal(r.body, &doc); err != nil {
			return nil, err
		}
		return doc.Scenarios, nil
	}
}

// scrape reads the counters of a replica's /metrics exposition:
// unlabeled samples by name, labeled ones by their full series.
func scrape(ctx context.Context, url string) map[string]float64 {
	out := make(map[string]float64)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return out
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrapeDelta is after minus before, series by series.
func scrapeDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// non2xx sums the HTTP request counters whose status class is not 2xx.
func non2xx(delta map[string]float64) float64 {
	var n float64
	for k, v := range delta {
		if strings.HasPrefix(k, "mppm_http_requests_total{") && !strings.Contains(k, `code="2xx"`) {
			n += v
		}
	}
	return n
}
