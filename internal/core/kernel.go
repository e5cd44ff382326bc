package core

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sdc"
)

// Kernel owns every piece of per-run scratch the iterative model needs —
// slowdown and position vectors, per-program window cursors and
// aggregates (with their SDC backing in one contiguous array),
// contention inputs and outputs — so a steady-state Run performs no
// per-iteration allocation and only a handful of small allocations
// total: the bound contention evaluator, and the Result with its names
// and one float array, which must escape to the caller.
//
// A Kernel is not safe for concurrent use; the evaluation engine pools
// kernels so concurrent sweep and service traffic reuses scratch across
// jobs without sharing it within one.
type Kernel struct {
	// per-program vectors, sized to the last run's program count
	r        []float64 // R_p slowdown estimates
	pos      []float64 // I_p trace positions
	total    []float64 // cumulative instructions executed
	avgNum   []float64 // progress-weighted slowdown numerator
	avgDen   []float64 // progress-weighted slowdown denominator
	cpiLocal []float64 // local single-core CPI of the current chunk
	nProg    []float64 // N_p instruction progress this iteration
	extra    []float64 // contention-model output
	target   []float64 // convergence target in instructions per program

	cursors []profile.Cursor // each program's window start this iteration
	windows []profile.Window
	inputs  []contention.Input
	sdcBack []float64 // one backing array for every window's SDC
}

// NewKernel returns an empty kernel; scratch is grown on first use and
// reused (never shrunk) afterwards.
func NewKernel() *Kernel { return &Kernel{} }

// ensure sizes the scratch for n programs with ways-way SDCs, reusing
// prior capacity where possible.
func (k *Kernel) ensure(n, ways int) {
	if cap(k.r) < n {
		k.r = make([]float64, n)
		k.pos = make([]float64, n)
		k.total = make([]float64, n)
		k.avgNum = make([]float64, n)
		k.avgDen = make([]float64, n)
		k.cpiLocal = make([]float64, n)
		k.nProg = make([]float64, n)
		k.extra = make([]float64, n)
		k.target = make([]float64, n)
		k.cursors = make([]profile.Cursor, n)
		k.windows = make([]profile.Window, n)
		k.inputs = make([]contention.Input, n)
	}
	k.r = k.r[:n]
	k.pos = k.pos[:n]
	k.total = k.total[:n]
	k.avgNum = k.avgNum[:n]
	k.avgDen = k.avgDen[:n]
	k.cpiLocal = k.cpiLocal[:n]
	k.nProg = k.nProg[:n]
	k.extra = k.extra[:n]
	k.target = k.target[:n]
	k.cursors = k.cursors[:n]
	k.windows = k.windows[:n]
	k.inputs = k.inputs[:n]

	stride := ways + 1
	if cap(k.sdcBack) < n*stride {
		k.sdcBack = make([]float64, n*stride)
	}
	k.sdcBack = k.sdcBack[:n*stride]
	for p := 0; p < n; p++ {
		k.windows[p].SDC = sdc.From(k.sdcBack[p*stride : (p+1)*stride])
		k.inputs[p] = contention.Input{SDC: k.windows[p].SDC}
	}
}

// Run validates the profiles and options exactly like New and executes
// the iterative model (Figure 2) with the kernel's reusable scratch.
// The returned Result is freshly allocated and does not alias kernel
// state, so it stays valid after the kernel is reused or pooled.
func (k *Kernel) Run(profiles []*profile.Profile, opts Options) (*Result, error) {
	m, err := newModel(profiles, opts)
	if err != nil {
		return nil, err
	}
	return k.run(&m)
}

// done reports whether every program has executed its target multiple of
// trace lengths.
func (k *Kernel) done() bool {
	for p, t := range k.target {
		if k.total[p] < t {
			return false
		}
	}
	return true
}

// maxPosition bounds a program's trace position: float64 counts
// instructions exactly only below 2^53, and the profile lookups turn
// positions into interval indices.
const maxPosition = 1 << 53

// progressOK reports whether program p's slowdown and progress are in
// the range the profile lookups handle. A validated profile can still
// hold counters extreme enough (an interval of 1e-300 cycles) to
// overflow R_p, and with it C and N_p; a NaN or huge position would
// then index the profile out of range.
func (k *Kernel) progressOK(p int) bool {
	return finite(k.r[p]) && k.pos[p]+k.nProg[p] < maxPosition // false for NaN
}

// diverged is the error for a program that failed progressOK.
func (k *Kernel) diverged(prof *profile.Profile, p int, C float64) error {
	return fmt.Errorf("core: %s diverged: R_p %v, N_p %v over C %v cycles",
		prof.Meta.Benchmark, k.r[p], k.nProg[p], C)
}

// run executes the model loop for an already-validated Model.
func (k *Kernel) run(m *Model) (*Result, error) {
	n := len(m.profiles)
	L := float64(m.opts.ChunkL)
	k.ensure(n, m.ways)

	// Initial conditions: R_p = 1, I_p = 0.
	for p := 0; p < n; p++ {
		k.r[p] = 1
		k.pos[p] = 0
		k.total[p] = 0
		k.avgNum[p] = 0
		k.avgDen[p] = 0
		k.target[p] = m.opts.TargetMultiple * float64(m.profiles[p].Meta.TraceLength)
	}

	// One-time contention bind: validation and model scratch are hoisted
	// here, out of the iteration loop.
	eval, err := contention.Bind(m.opts.Contention, m.ways, n)
	if err != nil {
		return nil, fmt.Errorf("core: contention model: %w", err)
	}

	// The three per-program float outputs share one backing array; each
	// is capped so that an append to one cannot overwrite the next.
	out := make([]float64, 3*n)
	res := &Result{
		Benchmarks: make([]string, n),
		SingleCPI:  out[0:n:n],
	}
	for p, prof := range m.profiles {
		res.Benchmarks[p] = prof.Meta.Benchmark
		res.SingleCPI[p] = m.unscale(p, prof.CPI())
	}

	iter := 0
	for ; iter < m.opts.MaxIterations && !k.done(); iter++ {
		// Determine the slowest program over the next L instructions:
		// highest multi-core CPI = local single-core CPI times R_p. Each
		// program's window start is resolved once, here, and serves all
		// three of its queries this iteration.
		C := 0.0
		for p, prof := range m.profiles {
			k.cursors[p] = prof.Seek(k.pos[p])
			cpi := m.unscale(p, prof.CPIFrom(&k.cursors[p], L))
			k.cpiLocal[p] = cpi
			if cpi <= 0 {
				return nil, fmt.Errorf("core: %s has zero CPI window at %v",
					prof.Meta.Benchmark, k.pos[p])
			}
			if c := cpi * k.r[p] * L; c > C {
				C = c
			}
		}

		// Instruction progress per program over those C cycles, refined
		// once so N_p reflects the CPI of the window it actually covers.
		for p, prof := range m.profiles {
			k.nProg[p] = C / (k.cpiLocal[p] * k.r[p])
			// N_p is checked before each profile lookup that uses it.
			if !k.progressOK(p) {
				return nil, k.diverged(prof, p, C)
			}
			// The slowest program often gets N_p == L back exactly, and
			// then its refined probe is the one already taken.
			refined := k.cpiLocal[p]
			if k.nProg[p] != L {
				refined = m.unscale(p, prof.CPIFrom(&k.cursors[p], k.nProg[p]))
			}
			if refined > 0 {
				k.nProg[p] = C / (refined * k.r[p])
			}
			if !k.progressOK(p) {
				return nil, k.diverged(prof, p, C)
			}
		}

		// Accumulate SDCs over each program's window and estimate the
		// extra conflict misses from sharing.
		for p, prof := range m.profiles {
			prof.WindowFrom(&k.windows[p], &k.cursors[p], k.nProg[p])
		}
		if err := eval.ExtraMissesInto(k.extra, k.inputs); err != nil {
			return nil, fmt.Errorf("core: contention model: %w", err)
		}

		// Bandwidth extension: mean M/D/1 queueing delay per miss given
		// the mix's aggregate channel demand over these C cycles.
		var sharedWait float64
		if s := m.opts.BandwidthOccupancy; s > 0 {
			totalMisses := 0.0
			for p := 0; p < n; p++ {
				totalMisses += k.windows[p].LLCMisses() + k.extra[p]
			}
			sharedWait = queueWait(totalMisses*s/C, s)
		}

		// Convert extra misses to lost cycles using each program's
		// average LLC miss penalty over the window, and update R_p.
		for p := 0; p < n; p++ {
			w := &k.windows[p]
			penalty := m.unscale(p, m.memLat)
			if misses := w.LLCMisses(); misses > 1e-9 && w.MemStall > 0 {
				penalty = m.unscale(p, w.MemStall) / misses
			}
			missCycles := k.extra[p] * penalty
			if s := m.opts.BandwidthOccupancy; s > 0 {
				// Incremental queueing over what isolated execution (and
				// thus the measured memory CPI) already contains.
				isoCycles := m.unscale(p, w.Cycles)
				isoWait := 0.0
				if isoCycles > 0 {
					isoWait = queueWait(w.LLCMisses()*s/isoCycles, s)
				}
				if dw := sharedWait - isoWait; dw > 0 {
					missCycles += dw * (w.LLCMisses() + k.extra[p])
				}
			}
			denom := C
			if !m.opts.PaperDenominator {
				// The program's isolated cycles over its N_p window.
				denom = m.unscale(p, w.Cycles)
			}
			rNew := 1 + missCycles/denom
			k.r[p] = m.opts.Smoothing*k.r[p] + (1-m.opts.Smoothing)*rNew

			k.avgNum[p] += k.r[p] * k.nProg[p]
			k.avgDen[p] += k.nProg[p]

			k.pos[p] += k.nProg[p]
			k.total[p] += k.nProg[p]
		}

		if m.opts.RecordHistory {
			res.History = append(res.History, append([]float64(nil), k.r...))
		}
	}
	if !k.done() {
		return nil, fmt.Errorf("core: no convergence after %d iterations", iter)
	}

	res.Iterations = iter
	res.Slowdown = out[n : 2*n : 2*n]
	res.MultiCPI = out[2*n : 3*n : 3*n]
	for p := 0; p < n; p++ {
		r := k.r[p]
		if m.opts.ReportAverage && k.avgDen[p] > 0 {
			r = k.avgNum[p] / k.avgDen[p]
		}
		if r < 1 {
			r = 1 // sharing cannot speed a program up in this model
		}
		res.Slowdown[p] = r
		res.MultiCPI[p] = res.SingleCPI[p] * r
		if !finite(res.MultiCPI[p]) {
			return nil, fmt.Errorf("core: %s diverged: multi-core CPI %v",
				res.Benchmarks[p], res.MultiCPI[p])
		}
	}

	if res.STP, err = metrics.STP(res.SingleCPI, res.MultiCPI); err != nil {
		return nil, fmt.Errorf("core: STP: %w", err)
	}
	if res.ANTT, err = metrics.ANTT(res.SingleCPI, res.MultiCPI); err != nil {
		return nil, fmt.Errorf("core: ANTT: %w", err)
	}
	return res, nil
}

// finite reports whether x is neither NaN nor ±Inf (x-x is NaN for both).
func finite(x float64) bool { return x-x == 0 }
