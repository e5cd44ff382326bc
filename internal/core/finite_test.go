package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/sdc"
)

// extremeProfile builds a valid 4-interval, 2-way profile whose
// intervals carry the given cycle counts (everything else ordinary).
func extremeProfile(name string, cycles ...float64) *profile.Profile {
	p := &profile.Profile{Meta: profile.Meta{
		Benchmark: name, IntervalLength: 100,
		LLC: cache.Config{Name: "llc", SizeBytes: 2 * 64 * 4, Ways: 2, LineSize: 64, LatencyCycles: 16},
		CPU: cpu.DefaultParams(),
	}}
	for _, c := range cycles {
		p.Intervals = append(p.Intervals, profile.Interval{
			Instructions: 100, Cycles: c, MemStall: 40, LLCAccesses: 30,
			SDC: sdc.Counters{10, 10, 10},
		})
		p.Meta.TraceLength += 100
	}
	return p
}

// TestKernelRunNonFiniteProfile: interval cycle counts of 0 or 1e-300
// pass validation but overflow R_p to +Inf, which used to turn N_p and
// the trace position into NaN and panic indexing the profile. Kernel.Run
// must report an error naming the program instead.
func TestKernelRunNonFiniteProfile(t *testing.T) {
	for _, cycles := range [][]float64{
		{1e-300, 0, 160, 310},
		{0, 0, 160, 310},
		{1e-300, 1e-300, 160, 310},
	} {
		victim := extremeProfile("victim", cycles...)
		other := extremeProfile("other", 300, 260, 335, 320)
		if err := victim.Validate(); err != nil {
			t.Fatalf("cycles %v: profile should validate: %v", cycles, err)
		}
		_, err := NewKernel().Run([]*profile.Profile{victim, other}, Options{})
		if err == nil || !strings.Contains(err.Error(), "victim") {
			t.Errorf("cycles %v: Kernel.Run = %v, want an error naming the victim", cycles, err)
		}
	}
}

// fuzzFloat maps one byte onto a counter value, weighted towards the
// boundaries validation lets through: zero, subnormal-adjacent tiny
// values and magnitudes near overflow.
func fuzzFloat(b byte) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1e-300
	case 2:
		return math.SmallestNonzeroFloat64
	case 3:
		return 1e300
	case 4:
		return math.MaxFloat64
	default:
		return float64(b) * 3.7
	}
}

// fuzzProfiles decodes data into up to four profiles of a shared 1-4
// way LLC plus model options. Profiles may fail validation; the fuzz
// target skips those.
func fuzzProfiles(data []byte) ([]*profile.Profile, Options) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	n := 1 + int(next()%4)
	ways := 1 + int(next()%4)
	flags := next()
	var opts Options
	opts.PaperDenominator = flags&1 != 0
	opts.ReportAverage = flags&2 != 0
	if flags&4 != 0 {
		opts.BandwidthOccupancy = fuzzFloat(next())
	}
	if models := contention.Models(); flags&8 != 0 {
		opts.Contention = models[int(next())%len(models)]
	}
	if flags&16 != 0 {
		opts.FrequencyScale = make([]float64, n)
		for i := range opts.FrequencyScale {
			opts.FrequencyScale[i] = 0.25 + float64(next()%8)/2
		}
	}
	opts.MaxIterations = 200 // keep non-converging inputs cheap
	llc := cache.Config{Name: "llc", SizeBytes: int64(ways) * 64 * 4, Ways: ways, LineSize: 64, LatencyCycles: 16}
	profs := make([]*profile.Profile, n)
	for i := range profs {
		p := &profile.Profile{Meta: profile.Meta{
			Benchmark: string(rune('a' + i)), IntervalLength: 100,
			LLC: llc, CPU: cpu.DefaultParams(),
		}}
		for iv := 1 + int(next()%6); iv > 0; iv-- {
			counters := make(sdc.Counters, ways+1)
			for k := range counters {
				counters[k] = fuzzFloat(next())
			}
			instr := 1 + int64(next())*7
			p.Intervals = append(p.Intervals, profile.Interval{
				Instructions: instr,
				Cycles:       fuzzFloat(next()),
				MemStall:     fuzzFloat(next()),
				LLCAccesses:  fuzzFloat(next()),
				SDC:          counters,
			})
			p.Meta.TraceLength += instr
		}
		profs[i] = p
	}
	return profs, opts
}

// FuzzKernelRun: every set of profiles that passes Validate must make
// Kernel.Run return — a result or an error — and never panic.
func FuzzKernelRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 2, 5, 6, 7, 9, 200, 7, 7, 7, 2, 5, 6, 7, 9, 200, 9, 9, 9})
	f.Add([]byte{3, 2, 31, 3, 1, 4, 4, 4, 4, 1, 5, 5, 5, 50, 1, 5, 5, 3, 6, 6, 6, 60, 0, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		profs, opts := fuzzProfiles(data)
		for _, p := range profs {
			if p.Validate() != nil {
				return
			}
		}
		res, err := NewKernel().Run(profs, opts)
		if err != nil {
			return
		}
		outputs := append(append([]float64{res.STP, res.ANTT}, res.Slowdown...), res.MultiCPI...)
		for _, v := range outputs {
			if !finite(v) {
				t.Fatalf("non-finite output in a successful result: %+v", res)
			}
		}
	})
}
