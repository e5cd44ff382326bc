// Record-once / replay-per-config profiling pipeline.
//
// Everything below the LLC — trace generation, the private L1/L2
// hierarchy and the additive gap timing — is identical across all LLC
// configurations, yet the direct ProfileSource path re-runs all of it
// for every (benchmark, LLC) pair. Record runs that LLC-independent
// frontend exactly once and captures the compact stream of accesses
// that reach the LLC (typically a few percent of the references);
// Recording.Replay then drives any LLC geometry from that stream and
// reproduces ProfileSource's output bit-identically, because:
//
//   - the cpu.Timing accumulator is split into an LLC-independent base
//     part (recorded as absolute totals and restored with AdvanceTo)
//     and an LLC-dependent part that the replay re-accumulates with the
//     same OnAccess/AddMemStall calls, in the same order, as a direct
//     run would issue them;
//   - interval boundaries depend only on instruction counts, so the
//     frontend can pre-compute every interval close (position in the
//     access stream plus the exact counter values at the closing
//     reference) once, for all configurations.
//
// A design-space cold start therefore costs `benchmarks` frontend
// passes plus cheap replays instead of `benchmarks x configs` full
// passes.
package sim

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mppmerr"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sdc"
	"repro/internal/trace"
)

const (
	recFlagWrite     = byte(1 << 0)
	recFlagDependent = byte(1 << 1)
)

// OutputGeneration is the semantic version of the profiling pipeline's
// output: bump it whenever a code change alters the *values* a
// recording or profile contains — trace generation, cpu.Timing rules,
// private-hierarchy behaviour, interval accounting — even though the
// serialized *shape* (codec.FormatVersion) is unchanged. The persistent
// artifact store folds it into every artifact's content address, so
// artifacts produced by older pipeline semantics miss instead of being
// served stale. TestOutputsGolden pins digests of those values and fails
// when they drift without a bump.
const OutputGeneration = 1

// closeMark is one pre-computed interval close. before is the index of
// the LLC access the close precedes (len(addrs) for closes after the
// final access); instr and base are the absolute instruction count and
// base-cycle total at the reference that triggered the close. A close
// coinciding with an LLC access carries that access's own counters and
// before = index+1, which replays it after the access — matching the
// direct path, where the boundary check runs after the access's stall
// has been charged.
type closeMark struct {
	before int
	instr  int64
	base   float64
}

// stream is one pass of a trace's shared-LLC access stream: per access
// the address, write/dependent flags and the absolute instruction count
// and base-cycle total at the access, plus the two counters at the end
// of the pass. Once built it is immutable.
type stream struct {
	addrs []uint64
	flags []byte
	instr []int64
	base  []float64

	endInstr int64
	endBase  float64
}

// Recording is the frontend's compact capture of one benchmark trace:
// the LLC access stream of its first pass plus the interval close
// schedule. It is immutable once built and safe for concurrent replays.
type Recording struct {
	benchmark   string
	traceLength int64
	interval    int64
	cpu         cpu.Params
	l1d, l2     cache.Config

	stream
	closes []closeMark
}

// Benchmark returns the recorded workload's name.
func (rec *Recording) Benchmark() string { return rec.benchmark }

// TraceLength returns the recorded trace's instruction count.
func (rec *Recording) TraceLength() int64 { return rec.traceLength }

// Accesses returns the number of LLC accesses in the recording — the
// stream length every replay pays for, versus TraceLength references
// for a direct profiling pass.
func (rec *Recording) Accesses() int { return len(rec.addrs) }

// Record runs the LLC-independent profiling frontend over rd: one pass
// through the private L1/L2 hierarchy and the gap timing model,
// capturing the LLC access stream. cfg's LLC geometry and
// MemBandwidthOccupancy are irrelevant to the result (they are
// replay-side); its CPU, private-level and interval parameters are
// baked into the recording and checked again at replay time.
func Record(ctx context.Context, rd trace.Source, cfg Config) (*Recording, error) {
	cfg.TraceLength = rd.Instructions()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var sp *obs.Span
	if obs.TraceSampled(ctx) {
		ctx, sp = obs.StartSpan(ctx, obs.Sim, "sim.record")
		sp.SetAttr("benchmark", rd.Name())
	}
	traced := obs.Sim.Enabled(obs.LevelInfo)
	var recordStart time.Time
	if traced {
		recordStart = time.Now()
		obs.Sim.Log(ctx, obs.LevelDebug, "record start",
			"benchmark", rd.Name(), "trace_length", cfg.TraceLength)
	}
	rec := &Recording{
		benchmark:   rd.Name(),
		traceLength: cfg.TraceLength,
		interval:    cfg.IntervalLength,
		cpu:         cfg.CPU,
		l1d:         cfg.Hierarchy.L1D,
		l2:          cfg.Hierarchy.L2,
	}
	if _, err := newRecorder(rd, cfg.CPU, cfg.Hierarchy).pass(ctx, &rec.stream, &rec.closes, cfg.IntervalLength); err != nil {
		sp.EndErr(err)
		return nil, err
	}
	if traced {
		obs.Sim.Log(ctx, obs.LevelInfo, "record done",
			"benchmark", rec.benchmark, "llc_accesses", len(rec.addrs),
			"closes", len(rec.closes), "elapsed", time.Since(recordStart))
	}
	if sp != nil {
		sp.SetAttr("llc_accesses", strconv.Itoa(len(rec.addrs)))
		sp.End()
	}
	return rec, nil
}

// recorder is the LLC-independent profiling frontend of one core: the
// trace cursor, the private L1/L2 caches and the gap timing model. Its
// state carries over from one pass of the trace to the next, as a core
// that restarts its trace keeps its warm private caches.
type recorder struct {
	cur  *trace.Cursor
	priv *cache.Private
	tm   *cpu.Timing
}

func newRecorder(src trace.Source, p cpu.Params, h cache.HierarchyConfig) *recorder {
	return &recorder{cur: trace.NewCursor(src), priv: cache.NewPrivate(h), tm: cpu.NewTiming(p)}
}

// pass runs the trace once from its start and returns the number of
// accesses that reached the LLC. It appends them to s unless s is nil,
// and, when closes is non-nil, the interval closes every interval
// instructions from the first pass's start. The LLC accesses themselves
// are not charged: that is the LLC-dependent part a replay or a
// multi-core simulation adds.
func (r *recorder) pass(ctx context.Context, s *stream, closes *[]closeMark, interval int64) (int, error) {
	cur, priv, tm := r.cur, r.priv, r.tm
	cur.Reset()
	nextBoundary := int64(math.MaxInt64)
	if closes != nil {
		nextBoundary = interval
	}
	nextCtxCheck := tm.Instructions() + ctxCheckInterval
	accesses := 0
	for {
		ref := cur.Next()
		if ref == nil {
			break
		}
		tm.OnGap(ref.Gap, ref.GapCycles)
		if tm.Instructions() >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			nextCtxCheck = tm.Instructions() + ctxCheckInterval
		}
		level := priv.Access(ref.Addr, ref.Write)
		if level == 0 {
			accesses++
			if s != nil {
				var f byte
				if ref.Write {
					f |= recFlagWrite
				}
				if ref.Dependent {
					f |= recFlagDependent
				}
				s.addrs = append(s.addrs, ref.Addr)
				s.flags = append(s.flags, f)
				s.instr = append(s.instr, tm.Instructions())
				s.base = append(s.base, tm.BaseCycles())
			}
		} else {
			tm.OnAccess(level, 0, ref.Dependent)
		}
		// Mirror the direct path's boundary rule exactly: one close per
		// reference at most, checked after the reference is charged.
		if tm.Instructions() >= nextBoundary {
			*closes = append(*closes, closeMark{
				before: len(s.addrs),
				instr:  tm.Instructions(),
				base:   tm.BaseCycles(),
			})
			nextBoundary += interval
		}
	}
	if s != nil {
		s.endInstr, s.endBase = tm.Instructions(), tm.BaseCycles()
	}
	return accesses, nil
}

// compatibleWith reports whether cfg's frontend-side parameters match
// the ones the recording was captured under. A mismatch in CPU timing,
// private-level geometry or interval length invalidates the recording;
// the LLC geometry and the bandwidth model are free replay-side knobs.
func (rec *Recording) compatibleWith(cfg Config) error {
	switch {
	case cfg.IntervalLength != rec.interval:
		return fmt.Errorf("sim: recording %s captured at interval length %d, config wants %d: %w",
			rec.benchmark, rec.interval, cfg.IntervalLength, mppmerr.ErrBadConfig)
	case cfg.CPU != rec.cpu:
		return fmt.Errorf("sim: recording %s captured under different CPU parameters: %w",
			rec.benchmark, mppmerr.ErrBadConfig)
	case cfg.Hierarchy.L1D != rec.l1d || cfg.Hierarchy.L2 != rec.l2:
		return fmt.Errorf("sim: recording %s captured under different private caches: %w",
			rec.benchmark, mppmerr.ErrBadConfig)
	}
	return nil
}

// Replay drives the recorded LLC access stream through cfg's LLC
// geometry and produces the profile a direct ProfileSource run of the
// same trace under cfg would produce, bit-identically. The recording's
// frontend parameters must match cfg (see Record); ErrBadConfig is
// returned otherwise. Replays of one Recording are independent and may
// run concurrently.
func (rec *Recording) Replay(ctx context.Context, cfg Config, opts ProfileOptions) (*profile.Profile, error) {
	cfg.TraceLength = rec.traceLength
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := rec.compatibleWith(cfg); err != nil {
		return nil, err
	}
	var sp *obs.Span
	if obs.TraceSampled(ctx) {
		ctx, sp = obs.StartSpan(ctx, obs.Sim, "sim.replay")
		sp.SetAttr("benchmark", rec.benchmark)
		sp.SetAttr("llc", cfg.Hierarchy.LLC.Name)
	}
	llc := cache.New(cfg.Hierarchy.LLC)
	tm := cpu.NewTiming(cfg.CPU)
	ways := cfg.Hierarchy.LLC.Ways
	llcLat := cfg.Hierarchy.LLC.LatencyCycles

	p := &profile.Profile{
		Meta: profile.Meta{
			Benchmark:      rec.benchmark,
			TraceLength:    cfg.TraceLength,
			IntervalLength: cfg.IntervalLength,
			LLC:            cfg.Hierarchy.LLC,
			CPU:            cfg.CPU,
		},
		Intervals: make([]profile.Interval, 0, len(rec.closes)+1),
	}

	ivSDC := sdc.New(ways)
	ivAccesses := 0.0
	last := tm.Snapshot()
	busFreeAt := 0.0

	closeAt := func(instr int64, base float64) {
		tm.AdvanceTo(instr, base)
		now := tm.Snapshot()
		p.Intervals = append(p.Intervals, profile.Interval{
			Instructions: now.Instructions - last.Instructions,
			Cycles:       now.Cycles - last.Cycles,
			MemStall:     now.MemStall - last.MemStall,
			LLCAccesses:  ivAccesses,
			SDC:          ivSDC.Clone(),
		})
		ivSDC.Reset()
		ivAccesses = 0
		last = now
	}

	ci := 0
	for i := range rec.addrs {
		for ci < len(rec.closes) && rec.closes[ci].before == i {
			closeAt(rec.closes[ci].instr, rec.closes[ci].base)
			ci++
		}
		if i&0xFFFF == 0 {
			if err := ctx.Err(); err != nil {
				sp.EndErr(err)
				return nil, err
			}
		}
		tm.AdvanceTo(rec.instr[i], rec.base[i])
		f := rec.flags[i]
		dependent := f&recFlagDependent != 0
		hit, depth, _ := llc.Access(rec.addrs[i], f&recFlagWrite != 0)
		ivAccesses++
		if hit {
			ivSDC.Record(depth)
			tm.OnAccess(cache.LLCHit, llcLat, dependent)
		} else {
			ivSDC.Record(0)
			if opts.PerfectLLC {
				tm.OnAccess(cache.LLCHit, llcLat, dependent)
			} else {
				tm.OnAccess(cache.LLCMiss, llcLat, dependent)
				if occ := cfg.MemBandwidthOccupancy; occ > 0 {
					now := tm.Cycles()
					if busFreeAt > now {
						tm.AddMemStall(busFreeAt - now)
					}
					busFreeAt = math.Max(busFreeAt, now) + occ
				}
			}
		}
	}
	for ; ci < len(rec.closes); ci++ {
		closeAt(rec.closes[ci].instr, rec.closes[ci].base)
	}
	tm.AdvanceTo(rec.endInstr, rec.endBase)
	if tm.Instructions() > last.Instructions {
		closeAt(rec.endInstr, rec.endBase)
	}
	if err := p.Validate(); err != nil {
		err = fmt.Errorf("sim: replay produced invalid profile: %w", err)
		sp.EndErr(err)
		return nil, err
	}
	sp.End()
	if obs.Sim.Enabled(obs.LevelDebug) {
		obs.Sim.Log(ctx, obs.LevelDebug, "replay done",
			"benchmark", rec.benchmark, "llc", cfg.Hierarchy.LLC.Name,
			"intervals", len(p.Intervals))
	}
	return p, nil
}

// RecordingData is the exported snapshot of a Recording's contents —
// the serialization surface of the record/replay pipeline. The slices
// are shared with the Recording that produced them (recordings are
// immutable), so callers must treat them as read-only. CloseBefore,
// CloseInstr and CloseBase are the parallel columns of the interval
// close schedule (see closeMark).
type RecordingData struct {
	Benchmark   string
	TraceLength int64
	Interval    int64
	CPU         cpu.Params
	L1D, L2     cache.Config

	Addrs []uint64
	Flags []byte
	Instr []int64
	Base  []float64

	CloseBefore []int
	CloseInstr  []int64
	CloseBase   []float64

	EndInstr int64
	EndBase  float64
}

// Data exports the recording for serialization. The returned slices
// alias the recording's internal state and must not be mutated.
func (rec *Recording) Data() RecordingData {
	d := RecordingData{
		Benchmark:   rec.benchmark,
		TraceLength: rec.traceLength,
		Interval:    rec.interval,
		CPU:         rec.cpu,
		L1D:         rec.l1d,
		L2:          rec.l2,
		Addrs:       rec.addrs,
		Flags:       rec.flags,
		Instr:       rec.instr,
		Base:        rec.base,
		CloseBefore: make([]int, len(rec.closes)),
		CloseInstr:  make([]int64, len(rec.closes)),
		CloseBase:   make([]float64, len(rec.closes)),
		EndInstr:    rec.endInstr,
		EndBase:     rec.endBase,
	}
	for i, c := range rec.closes {
		d.CloseBefore[i] = c.before
		d.CloseInstr[i] = c.instr
		d.CloseBase[i] = c.base
	}
	return d
}

// RecordingFromData rebuilds a Recording from a deserialized snapshot,
// validating every structural invariant Replay relies on — stream
// columns of equal length, monotonically non-decreasing counters,
// in-range interval closes — so a corrupt or adversarial artifact is
// rejected with ErrBadConfig instead of producing garbage profiles (or
// panics) at replay time. The slices are adopted, not copied.
func RecordingFromData(d RecordingData) (*Recording, error) {
	bad := func(format string, args ...any) (*Recording, error) {
		args = append([]any{d.Benchmark}, args...)
		args = append(args, mppmerr.ErrBadConfig)
		return nil, fmt.Errorf("sim: recording %q: "+format+": %w", args...)
	}
	if d.Benchmark == "" {
		return bad("empty benchmark name")
	}
	if d.TraceLength < 1 {
		return bad("non-positive trace length %d", d.TraceLength)
	}
	if d.Interval < 1 || d.Interval > d.TraceLength {
		return bad("interval length %d outside [1, trace length]", d.Interval)
	}
	if err := d.CPU.Validate(); err != nil {
		return bad("invalid CPU parameters: %v", err)
	}
	if err := d.L1D.Validate(); err != nil {
		return bad("invalid L1D: %v", err)
	}
	if err := d.L2.Validate(); err != nil {
		return bad("invalid L2: %v", err)
	}
	n := len(d.Addrs)
	if len(d.Flags) != n || len(d.Instr) != n || len(d.Base) != n {
		return bad("stream columns disagree (%d addrs, %d flags, %d instr, %d base)",
			n, len(d.Flags), len(d.Instr), len(d.Base))
	}
	prevInstr, prevBase := int64(0), 0.0
	for i := 0; i < n; i++ {
		if d.Instr[i] < prevInstr || d.Base[i] < prevBase ||
			math.IsNaN(d.Base[i]) || math.IsInf(d.Base[i], 0) {
			return bad("access %d has non-monotonic counters", i)
		}
		prevInstr, prevBase = d.Instr[i], d.Base[i]
	}
	nc := len(d.CloseBefore)
	if len(d.CloseInstr) != nc || len(d.CloseBase) != nc {
		return bad("close columns disagree (%d before, %d instr, %d base)",
			nc, len(d.CloseInstr), len(d.CloseBase))
	}
	prevBefore, prevInstr, prevBase := 0, int64(0), 0.0
	for i := 0; i < nc; i++ {
		if d.CloseBefore[i] < prevBefore || d.CloseBefore[i] > n {
			return bad("close %d out of order or out of range", i)
		}
		if d.CloseInstr[i] < prevInstr || d.CloseBase[i] < prevBase ||
			math.IsNaN(d.CloseBase[i]) || math.IsInf(d.CloseBase[i], 0) {
			return bad("close %d has non-monotonic counters", i)
		}
		prevBefore, prevInstr, prevBase = d.CloseBefore[i], d.CloseInstr[i], d.CloseBase[i]
	}
	if d.EndInstr < prevInstr || d.EndInstr != d.TraceLength ||
		d.EndBase < prevBase || math.IsNaN(d.EndBase) || math.IsInf(d.EndBase, 0) {
		return bad("end counters inconsistent (end instr %d, trace length %d)",
			d.EndInstr, d.TraceLength)
	}
	rec := &Recording{
		benchmark:   d.Benchmark,
		traceLength: d.TraceLength,
		interval:    d.Interval,
		cpu:         d.CPU,
		l1d:         d.L1D,
		l2:          d.L2,
		stream: stream{
			addrs:    d.Addrs,
			flags:    d.Flags,
			instr:    d.Instr,
			base:     d.Base,
			endInstr: d.EndInstr,
			endBase:  d.EndBase,
		},
		closes: make([]closeMark, nc),
	}
	for i := 0; i < nc; i++ {
		rec.closes[i] = closeMark{before: d.CloseBefore[i], instr: d.CloseInstr[i], base: d.CloseBase[i]}
	}
	return rec, nil
}

// RecordSpec records the profiling frontend of one synthetic suite
// benchmark — the spec-based convenience over Record, mirroring
// Profile over ProfileSource.
func RecordSpec(ctx context.Context, spec trace.Spec, cfg Config) (*Recording, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(spec, cfg.TraceLength)
	if err != nil {
		return nil, err
	}
	return Record(ctx, rd, cfg)
}
