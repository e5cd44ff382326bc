package mppm

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"repro/internal/engine"
)

// Kind selects how a Request's scenarios are evaluated.
type Kind int

const (
	// KindPredict evaluates the analytical MPPM model (~ms per mix).
	KindPredict Kind = iota
	// KindSimulate runs the detailed multi-core reference simulator.
	KindSimulate
	// KindCompare runs both and pairs them per scenario, so model error
	// can be read off directly (the paper's Figure 4 comparison).
	KindCompare
)

// String returns the kind's wire name ("predict", "simulate", "compare").
func (k Kind) String() string {
	switch k {
	case KindPredict:
		return "predict"
	case KindSimulate:
		return "simulate"
	case KindCompare:
		return "compare"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a wire name produced by Kind.String. The empty
// string means KindPredict.
func KindByName(name string) (Kind, error) {
	switch name {
	case "predict", "":
		return KindPredict, nil
	case "simulate":
		return KindSimulate, nil
	case "compare":
		return KindCompare, nil
	default:
		return 0, fmt.Errorf("mppm: unknown evaluation kind %q: %w", name, ErrBadConfig)
	}
}

// Request is the one canonical way to ask for evaluations: a set of
// workload mixes, an evaluation kind, one or more LLC configurations
// and solver options. Single calls, batches, design-space sweeps,
// model-vs-simulation comparisons and stress searches are all shapes of
// the same request, and System.Eval executes every shape through the
// evaluation engine — one code path with cancellation, bounded
// concurrency, singleflight profile caching and deterministic ordering.
//
// Build requests with NewRequest and the functional options:
//
//	req := mppm.NewRequest(mppm.KindPredict, mixes,
//	    mppm.WithConfigs(mppm.LLCConfigs()...), // sweep all Table 2 configs
//	    mppm.WithOptions(mppm.ModelOptions{}),  // solver knobs
//	    mppm.WithTopK(10))                      // keep the 10 worst-STP scenarios
type Request struct {
	// Kind selects the evaluation: KindPredict (default), KindSimulate
	// or KindCompare.
	Kind Kind
	// Mixes are the workloads to evaluate; at least one, none empty.
	Mixes []Mix
	// Configs are the LLC configurations to evaluate every mix on.
	// Empty means the owning System's configured LLC.
	Configs []LLCConfig
	// Options tunes the MPPM solver; the zero value is the paper's
	// parameterization. Ignored by pure-simulation scenarios.
	Options ModelOptions
	// TopK, when positive, makes Eval retain only the TopK lowest-STP
	// scenarios, worst first — the Section 6 stress-workload search.
	// Failed scenarios are kept after the selection so errors stay
	// visible. Zero keeps everything in grid order.
	TopK int
	// Profiles, when non-nil, supplies single-core profiles explicitly
	// (derived or deserialized sets) instead of the engine's cache.
	Profiles *ProfileSet
}

// Option is a functional option for NewRequest.
type Option func(*Request)

// WithOptions sets the MPPM solver options for every scenario.
func WithOptions(o ModelOptions) Option {
	return func(r *Request) { r.Options = o }
}

// WithConfigs sets the LLC configurations the request sweeps over.
func WithConfigs(cfgs ...LLCConfig) Option {
	return func(r *Request) { r.Configs = cfgs }
}

// WithTopK keeps only the k lowest-STP scenarios, worst first.
func WithTopK(k int) Option {
	return func(r *Request) { r.TopK = k }
}

// WithProfiles supplies an explicit single-core profile set.
func WithProfiles(set *ProfileSet) Option {
	return func(r *Request) { r.Profiles = set }
}

// NewRequest builds a Request for the given mixes.
func NewRequest(kind Kind, mixes []Mix, opts ...Option) Request {
	r := Request{Kind: kind, Mixes: mixes}
	for _, o := range opts {
		o(&r)
	}
	return r
}

// Scenario is the outcome of evaluating one (mix, LLC configuration)
// pair. Exactly one of Err or the payload pointers is meaningful:
// Prediction for KindPredict, Measurement for KindSimulate, both for
// KindCompare.
type Scenario struct {
	Mix    Mix
	Config LLCConfig
	Err    error

	Prediction  *Prediction
	Measurement *Measurement
}

// STP returns the scenario's system throughput: the model's estimate
// when present, else the measured value. Zero on a failed scenario.
func (sc *Scenario) STP() float64 {
	if sc.Prediction != nil {
		return sc.Prediction.STP
	}
	if sc.Measurement != nil {
		return sc.Measurement.STP
	}
	return 0
}

// ANTT returns the scenario's average normalized turnaround time, with
// the same preference order as STP.
func (sc *Scenario) ANTT() float64 {
	if sc.Prediction != nil {
		return sc.Prediction.ANTT
	}
	if sc.Measurement != nil {
		return sc.Measurement.ANTT
	}
	return 0
}

// STPError returns the model's relative STP error for a KindCompare
// scenario (NaN-free: zero unless both sides are present).
func (sc *Scenario) STPError() float64 {
	if sc.Prediction == nil || sc.Measurement == nil || sc.Measurement.STP == 0 {
		return 0
	}
	return (sc.Prediction.STP - sc.Measurement.STP) / sc.Measurement.STP
}

// ANTTError returns the model's relative ANTT error for a KindCompare
// scenario.
func (sc *Scenario) ANTTError() float64 {
	if sc.Prediction == nil || sc.Measurement == nil || sc.Measurement.ANTT == 0 {
		return 0
	}
	return (sc.Prediction.ANTT - sc.Measurement.ANTT) / sc.Measurement.ANTT
}

// Result is the outcome of one Eval: every scenario of the request in
// config-major grid order (all mixes of Configs[0] first), unless TopK
// reordered and trimmed it.
type Result struct {
	Kind      Kind
	Mixes     []Mix
	Configs   []LLCConfig
	Scenarios []Scenario
}

// At returns the scenario of mix m on config c (grid order; do not use
// after a TopK request, which reorders Scenarios).
func (r *Result) At(c, m int) *Scenario {
	return &r.Scenarios[c*len(r.Mixes)+m]
}

// Err returns the first per-scenario error, or nil if every scenario
// succeeded.
func (r *Result) Err() error {
	for i := range r.Scenarios {
		if err := r.Scenarios[i].Err; err != nil {
			return err
		}
	}
	return nil
}

// Predictions unpacks the per-scenario model results in order, failing
// on the first scenario error.
func (r *Result) Predictions() ([]*Prediction, error) {
	out := make([]*Prediction, len(r.Scenarios))
	for i := range r.Scenarios {
		if err := r.Scenarios[i].Err; err != nil {
			return nil, err
		}
		out[i] = r.Scenarios[i].Prediction
	}
	return out, nil
}

// Measurements unpacks the per-scenario simulation results in order,
// failing on the first scenario error.
func (r *Result) Measurements() ([]*Measurement, error) {
	out := make([]*Measurement, len(r.Scenarios))
	for i := range r.Scenarios {
		if err := r.Scenarios[i].Err; err != nil {
			return nil, err
		}
		out[i] = r.Scenarios[i].Measurement
	}
	return out, nil
}

// MeanSTP averages STP over config row c's successful scenarios — the
// Section 5 design-ranking quantity.
func (r *Result) MeanSTP(c int) float64 {
	sum, n := 0.0, 0
	for m := range r.Mixes {
		if sc := r.At(c, m); sc.Err == nil {
			sum += sc.STP()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanANTT averages ANTT over config row c's successful scenarios.
func (r *Result) MeanANTT(c int) float64 {
	sum, n := 0.0, 0
	for m := range r.Mixes {
		if sc := r.At(c, m); sc.Err == nil {
			sum += sc.ANTT()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Confidence summarizes the result's STP and ANTT with 95% confidence
// bounds over all successful scenarios — the paper's contribution #3.
// It fails if any scenario failed or fewer than two succeeded.
func (r *Result) Confidence() (*ConfidenceReport, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	return confidence(len(r.Scenarios), func(i int) (float64, float64) {
		return r.Scenarios[i].STP(), r.Scenarios[i].ANTT()
	})
}

// evalPlan is a validated request lowered onto engine jobs: per engine
// jobs per scenario (2 for KindCompare), scenarios in config-major
// order.
type evalPlan struct {
	mixes   []Mix
	configs []LLCConfig
	jobs    []engine.Job
	per     int
}

// plan validates req and lowers it to engine jobs.
func (s *System) plan(req Request) (*evalPlan, error) {
	if len(req.Mixes) == 0 {
		return nil, fmt.Errorf("mppm: request has no mixes: %w", ErrEmptyMix)
	}
	for i, m := range req.Mixes {
		if len(m) == 0 {
			return nil, fmt.Errorf("mppm: mix %d: %w", i, ErrEmptyMix)
		}
	}
	if req.TopK < 0 {
		return nil, fmt.Errorf("mppm: negative TopK %d: %w", req.TopK, ErrBadConfig)
	}
	var kinds []engine.Kind
	switch req.Kind {
	case KindPredict:
		kinds = []engine.Kind{engine.Predict}
	case KindSimulate:
		kinds = []engine.Kind{engine.Simulate}
	case KindCompare:
		kinds = []engine.Kind{engine.Predict, engine.Simulate}
	default:
		return nil, fmt.Errorf("mppm: unknown evaluation kind %d: %w", int(req.Kind), ErrBadConfig)
	}
	configs := req.Configs
	if len(configs) == 0 {
		configs = []LLCConfig{s.LLC()}
	}
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	jobs := make([]engine.Job, 0, len(configs)*len(req.Mixes)*len(kinds))
	for _, llc := range configs {
		for _, mix := range req.Mixes {
			for _, k := range kinds {
				jobs = append(jobs, engine.Job{
					Mix: mix, LLC: llc, Kind: k,
					Opts: req.Options, Profiles: req.Profiles,
				})
			}
		}
	}
	return &evalPlan{mixes: req.Mixes, configs: configs, jobs: jobs, per: len(kinds)}, nil
}

// scenario joins one scenario's engine results (one job, or the
// predict+simulate pair of a KindCompare scenario).
func (p *evalPlan) scenario(rs []engine.Result) Scenario {
	sc := Scenario{Mix: rs[0].Job.Mix, Config: rs[0].Job.LLC}
	for _, r := range rs {
		if r.Err != nil {
			if sc.Err == nil {
				sc.Err = r.Err
			}
			continue
		}
		switch r.Job.Kind {
		case engine.Predict:
			sc.Prediction = r.Prediction
		case engine.Simulate:
			sc.Measurement = &Measurement{
				Benchmarks: r.Benchmarks,
				SingleCPI:  r.SingleCPI,
				MultiCPI:   r.MultiCPI,
				Slowdown:   r.Slowdown,
				STP:        r.STP,
				ANTT:       r.ANTT,
			}
		}
	}
	return sc
}

// Eval executes a Request through the evaluation engine and returns
// every scenario. Per-scenario failures (unknown benchmark, solver
// divergence) are captured in Scenario.Err and do not abort the batch;
// Eval itself fails only on an invalid request or context cancellation.
func (s *System) Eval(ctx context.Context, req Request) (*Result, error) {
	plan, err := s.plan(req)
	if err != nil {
		return nil, err
	}
	results, err := s.engine().Run(ctx, plan.jobs)
	if err != nil {
		return nil, err
	}
	scenarios := make([]Scenario, len(results)/plan.per)
	for i := range scenarios {
		scenarios[i] = plan.scenario(results[i*plan.per : (i+1)*plan.per])
	}
	res := &Result{Kind: req.Kind, Mixes: plan.mixes, Configs: plan.configs, Scenarios: scenarios}
	if req.TopK > 0 {
		res.keepWorst(req.TopK)
	}
	return res, nil
}

// keepWorst retains the k lowest-STP successful scenarios, worst first,
// then any failed scenarios so errors stay visible.
func (r *Result) keepWorst(k int) {
	ok := make([]Scenario, 0, len(r.Scenarios))
	var failed []Scenario
	for _, sc := range r.Scenarios {
		if sc.Err != nil {
			failed = append(failed, sc)
			continue
		}
		ok = append(ok, sc)
	}
	sort.SliceStable(ok, func(a, b int) bool { return ok[a].STP() < ok[b].STP() })
	if k < len(ok) {
		ok = ok[:k]
	}
	r.Scenarios = append(ok, failed...)
}

// EvalStream executes a Request like Eval but yields each scenario as
// soon as it — and every scenario before it — has finished, so sweeps
// of tens of thousands of scenarios can be consumed (ranked, streamed
// over HTTP, written to disk) incrementally. Scenarios arrive in
// config-major grid order; the paired error is the scenario's own Err.
//
// When ctx is cancelled mid-stream, EvalStream stops yielding scenarios
// and yields one final (zero Scenario, ctx.Err()) pair. Breaking out of
// the loop early cancels the remaining work. TopK requests need the
// whole grid and are rejected; use Eval.
func (s *System) EvalStream(ctx context.Context, req Request) iter.Seq2[Scenario, error] {
	return func(yield func(Scenario, error) bool) {
		plan, err := s.plan(req)
		if err != nil {
			yield(Scenario{}, err)
			return
		}
		if req.TopK > 0 {
			yield(Scenario{}, fmt.Errorf("mppm: TopK needs the full grid, use Eval: %w", ErrBadConfig))
			return
		}
		buf := make([]engine.Result, 0, plan.per)
		for _, r := range s.engine().Stream(ctx, plan.jobs) {
			if ctx.Err() != nil {
				yield(Scenario{}, ctx.Err())
				return
			}
			buf = append(buf, r)
			if len(buf) < plan.per {
				continue
			}
			sc := plan.scenario(buf)
			buf = buf[:0]
			if !yield(sc, sc.Err) {
				return
			}
		}
		if ctx.Err() != nil {
			yield(Scenario{}, ctx.Err())
		}
	}
}
