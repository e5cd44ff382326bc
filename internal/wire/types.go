package wire

// EvalRequest is the /v1/eval request shape: it mirrors mppm.Request
// field for field. The service re-exports it as
// service.EvalRequest; it lives here so the binary request codec and
// the JSON shape can never drift apart.
type EvalRequest struct {
	// Kind is "predict" (default), "simulate" or "compare".
	Kind string `json:"kind,omitempty"`
	// Mix is the single-mix shorthand; Mixes the batch form. Exactly one
	// of the two may be set.
	Mix   []string   `json:"mix,omitempty"`
	Mixes [][]string `json:"mixes,omitempty"`
	// Config is the single-config shorthand; Configs the sweep form.
	// Table 2 names ("config#1".."config#6"); empty means the paper's
	// default config#1.
	Config  string   `json:"config,omitempty"`
	Configs []string `json:"configs,omitempty"`
	// Contention selects the contention model for predictions; empty
	// means the paper's FOA.
	Contention string `json:"contention,omitempty"`
	// TopK, when positive, keeps only the k lowest-STP scenarios.
	TopK int `json:"top_k,omitempty"`
	// Stream switches the response to NDJSON: one ScenarioResult per
	// line in config-major grid order, flushed as each scenario (and
	// every scenario before it) completes — the JSON form of
	// System.EvalStream, and the fleet's shard transport to a peer on
	// another wire version. Incompatible with top_k (ranking needs the
	// full grid).
	Stream bool `json:"stream,omitempty"`
	// Format selects the /v1/eval response encoding: "" or "json" keeps
	// the JSON document (or NDJSON when Stream is set); "wire" switches
	// to the binary stream format of this package, always streamed.
	// Equivalent to sending Accept: application/x-mppm-wire.
	Format string `json:"format,omitempty"`
}

// Metrics is the JSON shape of one evaluated side (model prediction or
// detailed simulation) of a scenario.
type Metrics struct {
	Benchmarks []string  `json:"benchmarks"`
	SingleCPI  []float64 `json:"single_cpi"`
	MultiCPI   []float64 `json:"multi_cpi"`
	Slowdown   []float64 `json:"slowdown"`
	STP        float64   `json:"stp"`
	ANTT       float64   `json:"antt"`
	Iterations int       `json:"iterations,omitempty"`
}

// ScenarioResult is one (mix, config) outcome of a /v1/eval response.
type ScenarioResult struct {
	Mix         []string `json:"mix"`
	Config      string   `json:"config"`
	Error       string   `json:"error,omitempty"`
	Prediction  *Metrics `json:"prediction,omitempty"`
	Measurement *Metrics `json:"measurement,omitempty"`
	// STPError/ANTTError report the model's relative error on compare
	// scenarios.
	STPError  float64 `json:"stp_error,omitempty"`
	ANTTError float64 `json:"antt_error,omitempty"`
}
