SHELL := /bin/bash

# Benchmarks captured in the committed baseline: engine sweep
# throughput (plain and with tracing instrumented, via the unanchored
# Sweep), the model kernel, the profiling pipeline (cold start, direct
# pass, frontend recording, per-config replay, warm-store replica cold
# start), the detailed simulator on both frontends (live RunMulticore,
# SimulateTapes on extended tapes), and the wire protocol / coalesced
# streaming paths.
BENCH_PATTERN := Sweep|Kernel|ProfileColdStart|StoreColdStart|ProfileDirect|ProfileFrontendRecord|ProfileReplay|RunMulticore|SimulateTapes|Wire|EvalStream|JSONRowEncode|Coalesced
BENCH_COUNT   := 1

# Every tier-1 invocation carries an explicit per-package budget. The
# slowest packages under -race on a 2-vCPU VM, all packages run
# together: internal/sim 128 s, internal/experiments 80 s (417 s before
# detailed simulation ran on tapes), internal/fleet 74 s; each stays
# under a third of the budget.
TEST_TIMEOUT := 10m

# Benchmarks the perf gate tracks: the gate subset of BENCH_PATTERN
# (sweep throughput, model kernel, both cold-start pipelines and their
# frontend-record and per-config replay stages, the distributed
# FleetSweep and tracing-instrumented TracedSweep — via the unanchored
# Sweep — and the wire encode/decode, eval stream and coalesced
# broadcast paths). The two simulator benchmarks stay out until a
# baseline records them.
GATE_PATTERN   := Sweep|KernelRun|ProfileColdStart|StoreColdStart|ProfileFrontendRecord|ProfileReplay|WireEncode|WireDecode|EvalStream|CoalescedEval
GATE_BASELINE  := BENCH_PR10.json
GATE_THRESHOLD := 0.25
# The gate runs each benchmark GATE_COUNT times and benchdiff takes the
# best observation, so shared-runner noise on the microsecond-scale
# wire benchmarks doesn't trip the threshold.
GATE_COUNT     := 3

.PHONY: test race fleet-smoke perfbench-test bench-baseline bench-gate

test:
	go build ./... && go test -timeout $(TEST_TIMEOUT) ./...

# perfbench-test runs the repository benchmark's own unit tests. perfbench
# is a module of its own, so the root `go test ./...` does not reach it.
perfbench-test:
	cd perfbench && go test .

race:
	go test -race -timeout $(TEST_TIMEOUT) ./...

# fleet-smoke is the distributed-fabric correctness gate: three
# in-process replicas behind a coordinator serve the suite-wide Table 2
# sweep and the result must be byte-for-byte identical to a single
# node, including when one replica is killed mid-sweep; each replica
# that owns a mix gets exactly one sub-request; row 0 reaches the client
# while its replica still holds the rest; a warm round of concurrent
# sweeps dials no new replica connection; a traced sweep must stitch
# into one complete trace covering every shard.
fleet-smoke:
	go test -run 'TestFleetByteIdentity|TestFleetFailover|TestFleetErrorParity|TestFleetSelfCoordination|TestFleetOneShardPerReplica|TestFleetStreamsIncrementally|TestFleetReusesConnections|TestFleetTraceStitch' -count 1 -timeout $(TEST_TIMEOUT) -v ./internal/fleet/

# bench-baseline regenerates $(GATE_BASELINE) at the repo root — the
# in-tree perf snapshot bench-gate compares against and the CI bench
# job mirrors as per-run artifacts. Run it on an idle machine; the
# numbers land in the README table.
bench-baseline:
	set -o pipefail; \
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) ./... | tee bench.txt
	{ \
	  echo "{"; \
	  echo "  \"commit\": \"$$(git rev-parse HEAD 2>/dev/null || echo unknown)$$(git diff --quiet HEAD 2>/dev/null || echo -dirty)\","; \
	  echo "  \"generated_by\": \"make bench-baseline\","; \
	  echo "  \"bench\": ["; \
	  sed 's/\\/\\\\/g; s/"/\\"/g; s/\t/\\t/g; s/^/    "/; s/$$/",/' bench.txt | sed '$$ s/,$$//'; \
	  echo "  ]"; \
	  echo "}"; \
	} > $(GATE_BASELINE)
	@rm -f bench.txt
	@echo "wrote $(GATE_BASELINE)"

# bench-gate is the CI perf regression gate: run the tracked benchmarks
# and fail if any regresses more than GATE_THRESHOLD (ns/op or
# allocs/op) against the committed baseline. On failure the raw run is
# left in bench-gate.txt for inspection.
bench-gate:
	set -o pipefail; \
	go test -run '^$$' -bench '$(GATE_PATTERN)' -benchmem -count $(GATE_COUNT) ./... | tee bench-gate.txt
	go run ./cmd/benchdiff -baseline $(GATE_BASELINE) -current bench-gate.txt -threshold $(GATE_THRESHOLD)
	@rm -f bench-gate.txt
