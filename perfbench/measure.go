package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 is
	// 9990.000000000002) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie strictly past percentile p.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tailPercentile returns the highest ladder percentile that has at
// least minBeyond samples beyond it among n, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// Timing is a summarized set of latency samples.
type Timing struct {
	N      int     // samples, failures included
	P50    float64 // median
	TailP  float64 // percentile the tail is reported at
	Tail   float64
	Beyond int // samples past the tail percentile
}

// summarize reports the median and the tail of samples at percentile
// want, or at the highest percentile that keeps minBeyond samples past
// it when want would not. Failed operations belong in samples as +Inf:
// they miss every latency limit.
func summarize(samples []float64, want float64) Timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := Timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = s[rank(50, len(s))-1]
	p := want
	if beyond(p, len(s)) < minBeyond {
		if p = tailPercentile(len(s)); p == 0 {
			p = 50
		}
	}
	t.TailP, t.Tail, t.Beyond = p, s[rank(p, len(s))-1], beyond(p, len(s))
	return t
}

// windowFor is the smallest window of samples in which percentile p
// has minBeyond samples beyond it.
func windowFor(p float64) int {
	w := int(math.Ceil(minBeyond / (1 - p/100)))
	for beyond(p, w) < minBeyond {
		w++
	}
	return w
}

// summarizeWindowed is summarize with a steadier tail: the samples are
// cut, in order, into consecutive windows just long enough for
// percentile want, and the tail is the median of the windows' tails,
// so one stall in a run moves one window rather than the whole tail.
// With fewer than two windows' worth it is summarize.
func summarizeWindowed(samples []float64, want float64) (Timing, int) {
	t := summarize(samples, want)
	w := windowFor(want)
	k := len(samples) / w
	if k < 2 {
		return t, 1
	}
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = summarize(samples[i*w:(i+1)*w], want).Tail
	}
	t.TailP, t.Tail, t.Beyond = want, median(tails), beyond(want, w)
	return t, k
}

// median of a non-empty sample set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean of a sample set, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Tally counts operations attempted and failed. An operation that
// errors, is refused or returns a wrong answer is a failure.
type Tally struct {
	Attempted int
	Failed    int
}

func (t *Tally) ok(good bool) {
	t.Attempted++
	if !good {
		t.Failed++
	}
}

func (t *Tally) add(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// Ratio is failed over attempted; zero when nothing was attempted.
func (t Tally) Ratio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// Arrival is one open-loop request's timeline: when the schedule said
// to send it, when a client actually sent it and when the response
// completed. Idle records whether the sending client was free at Due,
// so Sent-Due is the generator's own lateness rather than queueing
// behind an earlier request.
type Arrival struct {
	Due, Sent, Done time.Time
	Idle            bool
	OK              bool
}

// latencyMS is the open-loop latency of a: measured from when the
// request was due, so a stall that delays later sends is charged to
// them. A failed request is +Inf.
func (a Arrival) latencyMS() float64 {
	if !a.OK {
		return math.Inf(1)
	}
	return float64(a.Done.Sub(a.Due)) / 1e6
}

// lagMS is how late an idle client sent a, or -1 when the client was
// busy at the due time (that wait is queueing, not generator lag).
func (a Arrival) lagMS() float64 {
	if !a.Idle {
		return -1
	}
	return math.Max(0, float64(a.Sent.Sub(a.Due))/1e6)
}

// openLoopStats summarizes an open-loop trial: latency from due time
// at percentile want, and the generator's lag.
func openLoopStats(as []Arrival, want float64) (lat, lag Timing) {
	l := make([]float64, len(as))
	var g []float64
	for i, a := range as {
		l[i] = a.latencyMS()
		if v := a.lagMS(); v >= 0 {
			g = append(g, v)
		}
	}
	return summarize(l, want), summarize(g, 99)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
