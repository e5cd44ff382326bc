// Tapes: detailed multi-core simulation from recorded LLC streams.
//
// A core of the detailed simulator spends almost all of its time below
// the LLC — generating its trace, running the private L1/L2 caches and
// adding up gap cycles — and none of that depends on the shared LLC or
// on the other cores. A Tape holds the outcome of that work once, for
// every simulation: one benchmark's LLC access stream over repeated
// passes of its trace, with the absolute instruction count and
// base-cycle total at each access. A core fed from a tape times an
// access with Timing.AdvanceTo followed by Cycles, which is the same
// floats added in the same order as the live path, so RunMulticoreTapes
// is bit-identical to RunMulticore (TestTapeMatchesLive).

package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mppmerr"
	"repro/internal/trace"
)

// Tape is one benchmark's shared-LLC access stream across repeated
// passes of its trace. Pass 1 is the Recording's stream, shared without
// copying. Passes 2 and later exist because a core that finishes early
// restarts its trace with warm private caches; a continuation frontend
// appends them lazily, the first time a simulation runs a core that
// far. A Tape is safe for concurrent simulations.
type Tape struct {
	rec *Recording
	src trace.Source // the recorded trace, replayed by cont; guarded by lock

	// lock is a one-slot semaphore guarding passes and cont. It is a
	// channel so a simulation waiting for another's extension can give
	// up when its context ends.
	lock   chan struct{}
	passes []*stream
	cont   *recorder // frontend positioned at the end of the last pass; nil until needed
}

// NewTape returns a tape over rec whose later passes are generated from
// src, which must replay the trace rec was recorded from. The tape takes
// src over: nothing else may read it.
func NewTape(rec *Recording, src trace.Source) (*Tape, error) {
	if src.Name() != rec.benchmark || src.Instructions() != rec.traceLength {
		return nil, fmt.Errorf("sim: tape for recording %s (%d instructions) given trace %s (%d instructions): %w",
			rec.benchmark, rec.traceLength, src.Name(), src.Instructions(), mppmerr.ErrBadConfig)
	}
	// Every line the trace touches misses the cold private caches on
	// its first pass, so pass 1 bounds the addresses of all passes.
	for _, a := range rec.addrs {
		if a >= 1<<coreAddrShift {
			return nil, fmt.Errorf("sim: recording %s has address %#x above the core tag bit: %w",
				rec.benchmark, a, mppmerr.ErrBadConfig)
		}
	}
	return &Tape{
		rec:    rec,
		src:    src,
		lock:   make(chan struct{}, 1),
		passes: []*stream{&rec.stream},
	}, nil
}

// Recording returns the recording the tape's first pass aliases.
func (t *Tape) Recording() *Recording { return t.rec }

// pass returns the tape's k-th pass (0-based), extending the tape first
// when no simulation has needed that pass yet.
func (t *Tape) pass(ctx context.Context, k int) (*stream, error) {
	select {
	case t.lock <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-t.lock }()
	for len(t.passes) <= k {
		if err := t.extend(ctx); err != nil {
			return nil, err
		}
	}
	return t.passes[k], nil
}

// extend appends the next pass. A fresh continuation first re-runs the
// passes already on the tape without keeping them, to warm its private
// caches, and checks each against the tape: a trace that does not
// replay the recording is an error, not a simulation. On any error the
// continuation and the partial pass are dropped, so a later extension
// starts again from the trace's beginning. The caller holds t.lock.
func (t *Tape) extend(ctx context.Context) error {
	if t.cont == nil {
		r := newRecorder(t.src, t.rec.cpu, cache.HierarchyConfig{L1D: t.rec.l1d, L2: t.rec.l2})
		for p, s := range t.passes {
			n, err := r.pass(ctx, nil, nil, 0)
			if err != nil {
				return err
			}
			if n != len(s.addrs) || r.tm.Instructions() != s.endInstr || r.tm.BaseCycles() != s.endBase {
				return fmt.Errorf("sim: tape %s: re-run of pass %d ends at %d LLC accesses, %d instructions, %v base cycles; the tape has %d, %d, %v: %w",
					t.rec.benchmark, p+1, n, r.tm.Instructions(), r.tm.BaseCycles(),
					len(s.addrs), s.endInstr, s.endBase, mppmerr.ErrBadConfig)
			}
		}
		t.cont = r
	}
	s := &stream{}
	if _, err := t.cont.pass(ctx, s, nil, 0); err != nil {
		t.cont = nil
		return err
	}
	t.passes = append(t.passes, s)
	return nil
}

// tapeFrontend feeds one core from a tape.
type tapeFrontend struct {
	tape   *Tape
	s      *stream // the pass being read
	passNo int     // index of s on the tape
	i      int     // next access of s

	nextCtxCheck int64
}

// next implements frontend.
func (f *tapeFrontend) next(ctx context.Context, c *coreState) (llcEvent, bool, error) {
	resets := 0
	for f.i == len(f.s.addrs) {
		if !c.finished {
			c.tm.AdvanceTo(f.s.endInstr, f.s.endBase)
			c.finish()
		}
		// As in liveFrontend: a whole further pass without an LLC access
		// leaves the core dormant.
		resets++
		if resets >= 2 {
			return llcEvent{}, false, nil
		}
		s, err := f.tape.pass(ctx, f.passNo+1)
		if err != nil {
			return llcEvent{}, false, err
		}
		f.s, f.passNo, f.i = s, f.passNo+1, 0
	}
	i := f.i
	f.i++
	instr := f.s.instr[i]
	if instr >= f.nextCtxCheck {
		if err := ctx.Err(); err != nil {
			return llcEvent{}, false, err
		}
		f.nextCtxCheck = instr + ctxCheckInterval
	}
	c.tm.AdvanceTo(instr, f.s.base[i])
	fl := f.s.flags[i]
	return c.event(f.s.addrs[i], fl&recFlagWrite != 0, fl&recFlagDependent != 0), true, nil
}

// RunMulticoreTapes is RunMulticore with every core fed from a tape
// instead of its live trace, one tape per core; a tape may feed several
// cores. The result is bit-identical to RunMulticore over the traces the
// tapes were recorded from, at the baseline frequency. Each tape's
// recording must have been captured under cfg's frontend parameters
// (see Record); cfg's LLC and bandwidth model are free. Passes a
// simulation adds to a tape stay on it for later simulations.
// Cancelling ctx aborts the run.
func RunMulticoreTapes(ctx context.Context, tapes []*Tape, cfg Config) (*MulticoreResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tapes) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	cores := make([]*coreState, len(tapes))
	names := make([]string, len(tapes))
	for i, t := range tapes {
		if err := t.rec.compatibleWith(cfg); err != nil {
			return nil, err
		}
		cores[i] = &coreState{
			id: i,
			tm: cpu.NewTiming(cfg.CPU),
			fe: &tapeFrontend{tape: t, s: &t.rec.stream, nextCtxCheck: ctxCheckInterval},
		}
		names[i] = t.rec.benchmark
	}
	return simulate(ctx, cores, names, cfg)
}
