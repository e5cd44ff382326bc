package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 98},
		{200, 95},
		{199, 90},
		{20, 50},
		{19, 0},
		{0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, p, beyond(p, c.n))
		}
	}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestSummarizeFallsBackToSupportedPercentile(t *testing.T) {
	// 500 samples cannot support p99 (5 beyond); p98 has exactly 10.
	got := summarize(seq(500), 99)
	if got.TailP != 98 || got.Beyond != 10 || got.Tail != 490 || got.P50 != 250 {
		t.Fatalf("summarize(1..500, 99) = %+v, want p98 = 490 with 10 beyond, p50 = 250", got)
	}
	// 1000 samples support p99 as asked.
	if got := summarize(seq(1000), 99); got.TailP != 99 || got.Tail != 990 || got.Beyond != 10 {
		t.Fatalf("summarize(1..1000, 99) = %+v", got)
	}
}

func TestWindowedTailIsMedianOfWindows(t *testing.T) {
	if w := windowFor(99); w != 1000 {
		t.Fatalf("windowFor(99) = %d, want 1000", w)
	}
	if w := windowFor(95); w != 200 {
		t.Fatalf("windowFor(95) = %d, want 200", w)
	}
	// Three windows of 200; the first holds a stall that would own the
	// tail of the pooled samples.
	var s []float64
	for w := 0; w < 3; w++ {
		for i := 0; i < 200; i++ {
			v := float64(w + 1)
			if i >= 185 {
				v = 10 * float64(w+1) // each window's p95 lands here
			}
			if w == 0 && i >= 180 {
				v = 1000
			}
			s = append(s, v)
		}
	}
	got, k := summarizeWindowed(s, 95)
	if k != 3 || got.Tail != 30 || got.TailP != 95 || got.Beyond != 10 {
		t.Fatalf("summarizeWindowed = %+v over %d windows, want tail 30 (median of 1000, 20, 30) over 3", got, k)
	}
	// Too few samples for two windows: the plain summary.
	if got, k := summarizeWindowed(seq(300), 95); k != 1 || got.Tail != summarize(seq(300), 95).Tail {
		t.Fatalf("summarizeWindowed(300) = %+v over %d windows", got, k)
	}
}

func TestColdTailStaysAtP90(t *testing.T) {
	// A cold run makes a fixed number of warm starts, whatever the host's
	// speed; at that count the tail must be p90 with ten samples beyond.
	n := rounds * coldWarmRepeats
	got, _ := summarizeWindowed(seq(n), tailFor["cold"])
	if got.TailP != 90 || got.Beyond < minBeyond {
		t.Fatalf("cold run of %d warm starts: tail %+v, want p90 with %d beyond", n, got, minBeyond)
	}
	// One warm start fewer per pass would drop it to p75.
	if got, _ := summarizeWindowed(seq(rounds*(coldWarmRepeats-1)), 90); got.TailP == 90 {
		t.Fatalf("%d samples still support p90: %+v", rounds*(coldWarmRepeats-1), got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * 1e6)) }
	idleLate := Arrival{Due: at(0), Sent: at(2), Done: at(5), Idle: true, OK: true}
	if got := idleLate.latencyMS(); got != 5 {
		t.Fatalf("latency = %g, want 5 (from due, generator lag included)", got)
	}
	if got := idleLate.lagMS(); got != 2 {
		t.Fatalf("lag = %g, want 2", got)
	}
	// A client busy with an earlier request at the due time: the wait
	// is queueing, charged to latency but not to the generator.
	queued := Arrival{Due: at(0), Sent: at(7), Done: at(9), Idle: false, OK: true}
	if got := queued.latencyMS(); got != 9 {
		t.Fatalf("queued latency = %g, want 9", got)
	}
	if got := queued.lagMS(); got >= 0 {
		t.Fatalf("queued lag = %g, want excluded", got)
	}
	lat, lag := openLoopStats([]Arrival{idleLate, queued}, 50)
	if lat.N != 2 || lag.N != 1 || lag.P50 != 2 {
		t.Fatalf("openLoopStats: lat %+v lag %+v", lat, lag)
	}
}

func TestFailuresCountAgainstAttempts(t *testing.T) {
	var tl Tally
	for i := 0; i < 8; i++ {
		tl.ok(i != 3)
	}
	tl.add(Tally{Attempted: 2, Failed: 1})
	if tl.Attempted != 10 || tl.Failed != 2 || tl.Ratio() != 0.2 {
		t.Fatalf("tally = %+v ratio %g, want 2 of 10", tl, tl.Ratio())
	}
	if (Tally{}).Ratio() != 0 {
		t.Fatal("empty tally has a nonzero ratio")
	}

	// A failed request misses every latency limit: 11 failures in 100
	// own the p90 tail however fast the rest were.
	var as []Arrival
	t0 := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		as = append(as, Arrival{Due: t0, Sent: t0, Done: t0.Add(time.Millisecond), Idle: true, OK: i >= 11})
	}
	lat, _ := openLoopStats(as, 90)
	if lat.TailP != 90 || !math.IsInf(lat.Tail, 1) || lat.P50 != 1 {
		t.Fatalf("openLoopStats with failures = %+v, want p90 = +Inf, p50 = 1", lat)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %g", m)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Fatal("empty median or mean is not NaN")
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Fatalf("mean = %g", m)
	}
}

func TestValidMetricsSlack(t *testing.T) {
	// A detailed simulation that timed one program 4e-5 faster co-running
	// than alone: in range for a measurement, not for a prediction.
	stp, antt := 4.000009354589376, 0.9999976618858293
	if !validMetrics(stp, antt, 4, measuredSlack) {
		t.Error("measurement a few parts in 1e5 past the range rejected")
	}
	if validMetrics(stp, antt, 4, predictedSlack) {
		t.Error("prediction past the range accepted")
	}
	for _, c := range [][2]float64{{0, 1}, {math.NaN(), 1}, {2, math.NaN()}, {4.1, 1}, {2, 0.99}} {
		if validMetrics(c[0], c[1], 4, measuredSlack) {
			t.Errorf("STP %g, ANTT %g accepted", c[0], c[1])
		}
	}
}
