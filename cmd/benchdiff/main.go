// Command benchdiff is the CI perf regression gate: it compares a `go
// test -bench` run against a committed baseline (BENCH_*.json or raw
// bench text) and fails when a tracked benchmark's ns/op or allocs/op
// regresses beyond a threshold.
//
//	go test -run '^$' -bench 'Sweep|Kernel' -benchmem ./... | \
//	    go run ./cmd/benchdiff -baseline BENCH_PR5.json
//
// Tracked benchmarks (the -tracked regexp; by default the sweep
// throughput, model kernel and cold-start suites) must be present in
// the current run — a tracked benchmark that silently disappears is
// treated like a regression, because a gate that stops measuring stops
// gating. Untracked benchmarks appearing in both runs are reported but
// never fail the gate; microbenchmark noise outside the tracked set
// should not block merges.
//
// When a benchmark appears multiple times (e.g. -count > 1), the best
// (minimum) ns/op and allocs/op are compared — best-of filters
// scheduler noise the way benchstat's median does, without needing N
// runs in CI.
//
// Exit codes: 0 all tracked benchmarks within threshold, 1 regression
// or missing tracked benchmark, 2 usage or input errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// defaultTracked gates the benchmarks the repository commits to: sweep
// throughput (the paper's headline), the model kernel, the two
// cold-start pipelines and the frontend-record and per-config replay
// stages they are built from, the distributed fleet sweep, the wire
// protocol encode/decode and coalesced-stream paths, and the sweep with
// tracing instrumented (whose "off" case pins tracing's
// zero-cost-when-off contract at the whole-pipeline level).
const defaultTracked = `^Benchmark(Sweep|KernelRun|ProfileColdStart|StoreColdStart|ProfileFrontendRecord|ProfileReplay` +
	`|FleetSweep|WireEncode|WireDecode|EvalStreamNDJSON|EvalStreamWire|CoalescedEval|TracedSweep)\b`

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// result is one benchmark's best observed numbers.
type result struct {
	nsOp      float64
	allocsOp  float64
	hasAllocs bool
}

// benchLine matches one `go test -bench` result line: name, iteration
// count, ns/op, then optional custom metrics, B/op and allocs/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+(?:e[+-]?[0-9]+)?) ns/op(.*)$`)

// allocsField extracts the allocs/op metric from a line's tail.
var allocsField = regexp.MustCompile(`(?:^|\s)([0-9.]+) allocs/op`)

// gomaxprocsSuffix is the -N a benchmark name carries when GOMAXPROCS
// differs from 1; stripped so runs from different machines align.
var gomaxprocsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parseBench folds bench output lines into best-of results keyed by
// normalized benchmark name. Non-benchmark lines (goos/pkg headers,
// PASS/ok trailers) are skipped; a line that names a benchmark but
// fails to parse is an error — a truncated bench log must not gate as
// "no regression".
func parseBench(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if fields := strings.Fields(line); len(fields) == 1 {
			continue // bare "BenchmarkFoo" line printed before -v output
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("malformed bench line: %q", line)
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		nsOp, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed ns/op in %q: %v", line, err)
		}
		res := result{nsOp: nsOp}
		if am := allocsField.FindStringSubmatch(m[3]); am != nil {
			res.allocsOp, err = strconv.ParseFloat(am[1], 64)
			if err != nil {
				return nil, fmt.Errorf("malformed allocs/op in %q: %v", line, err)
			}
			res.hasAllocs = true
		}
		if prev, ok := out[name]; ok {
			// Best-of across repeated runs.
			res.nsOp = math.Min(res.nsOp, prev.nsOp)
			if prev.hasAllocs {
				if res.hasAllocs {
					res.allocsOp = math.Min(res.allocsOp, prev.allocsOp)
				} else {
					res.allocsOp, res.hasAllocs = prev.allocsOp, true
				}
			}
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// baselineFile is the committed BENCH_*.json shape.
type baselineFile struct {
	Commit string   `json:"commit"`
	Bench  []string `json:"bench"`
}

// readBaseline loads a baseline from BENCH_*.json or raw bench text.
func readBaseline(path string) (map[string]result, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		var bf baselineFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, "", fmt.Errorf("%s: %v", path, err)
		}
		res, err := parseBench(strings.NewReader(strings.Join(bf.Bench, "\n")))
		if err != nil {
			return nil, "", fmt.Errorf("%s: %v", path, err)
		}
		return res, bf.Commit, nil
	}
	res, err := parseBench(strings.NewReader(trimmed))
	if err != nil {
		return nil, "", fmt.Errorf("%s: %v", path, err)
	}
	return res, "", nil
}

// row is one comparison in the report.
type row struct {
	name               string
	tracked, missing   bool
	base, cur          result
	nsDelta, allocsDel float64
	regressed          bool
}

// compare builds the report rows for every baseline benchmark.
func compare(base, cur map[string]result, tracked *regexp.Regexp, threshold float64) []row {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]row, 0, len(names))
	for _, name := range names {
		r := row{name: name, tracked: tracked.MatchString(name), base: base[name]}
		c, ok := cur[name]
		if !ok {
			r.missing = true
			rows = append(rows, r)
			continue
		}
		r.cur = c
		r.nsDelta = (c.nsOp - r.base.nsOp) / r.base.nsOp
		if r.base.hasAllocs && c.hasAllocs && r.base.allocsOp > 0 {
			r.allocsDel = (c.allocsOp - r.base.allocsOp) / r.base.allocsOp
		}
		r.regressed = r.tracked && (r.nsDelta > threshold || r.allocsDel > threshold)
		rows = append(rows, r)
	}
	return rows
}

func pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}

func status(r row) string {
	switch {
	case r.missing && r.tracked:
		return "MISSING"
	case r.missing:
		return "missing (untracked)"
	case r.regressed:
		return "REGRESSION"
	case !r.tracked:
		return "untracked"
	default:
		return "ok"
	}
}

// writeTable renders the aligned console report.
func writeTable(w io.Writer, rows []row, threshold float64) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tbase ns/op\tcur ns/op\tΔ ns/op\tbase allocs\tcur allocs\tΔ allocs\tstatus\n")
	for _, r := range rows {
		if r.missing {
			fmt.Fprintf(tw, "%s\t%.0f\t-\t-\t%s\t-\t-\t%s\n",
				r.name, r.base.nsOp, allocsStr(r.base), status(r))
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\t%s\t%s\t%s\t%s\n",
			r.name, r.base.nsOp, r.cur.nsOp, pct(r.nsDelta),
			allocsStr(r.base), allocsStr(r.cur), allocsDeltaStr(r), status(r))
	}
	tw.Flush()
	fmt.Fprintf(w, "\nthreshold: +%.0f%% on tracked benchmarks (ns/op or allocs/op)\n", threshold*100)
}

// writeMarkdown renders the same report as a GitHub job-summary table.
func writeMarkdown(w io.Writer, rows []row, threshold float64, baseCommit string) {
	fmt.Fprintf(w, "### Benchmark gate\n\n")
	if baseCommit != "" {
		fmt.Fprintf(w, "Baseline commit: `%s`\n\n", baseCommit)
	}
	fmt.Fprintf(w, "| benchmark | base ns/op | cur ns/op | Δ ns/op | base allocs | cur allocs | Δ allocs | status |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		if r.missing {
			fmt.Fprintf(w, "| %s | %.0f | - | - | %s | - | - | %s |\n",
				r.name, r.base.nsOp, allocsStr(r.base), status(r))
			continue
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %s | %s | %s | %s | %s |\n",
			r.name, r.base.nsOp, r.cur.nsOp, pct(r.nsDelta),
			allocsStr(r.base), allocsStr(r.cur), allocsDeltaStr(r), status(r))
	}
	fmt.Fprintf(w, "\nThreshold: +%.0f%% on tracked benchmarks (ns/op or allocs/op).\n", threshold*100)
}

func allocsStr(r result) string {
	if !r.hasAllocs {
		return "-"
	}
	return strconv.FormatFloat(r.allocsOp, 'f', -1, 64)
}

func allocsDeltaStr(r row) string {
	if !r.base.hasAllocs || !r.cur.hasAllocs || r.base.allocsOp == 0 {
		return "-"
	}
	return pct(r.allocsDel)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline  = fs.String("baseline", "", "baseline file: BENCH_*.json or raw `go test -bench` text (required)")
		current   = fs.String("current", "-", `current bench output file ("-" = stdin)`)
		threshold = fs.Float64("threshold", 0.25, "relative regression threshold on ns/op and allocs/op")
		trackedRe = fs.String("tracked", defaultTracked, "regexp selecting the benchmarks that gate")
		summary   = fs.String("summary", "", "also write a markdown report to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" {
		fmt.Fprintln(stderr, "benchdiff: -baseline is required")
		fs.Usage()
		return 2
	}
	if *threshold <= 0 {
		fmt.Fprintln(stderr, "benchdiff: -threshold must be positive")
		return 2
	}
	tracked, err := regexp.Compile(*trackedRe)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: bad -tracked regexp: %v\n", err)
		return 2
	}

	base, baseCommit, err := readBaseline(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: baseline: %v\n", err)
		return 2
	}
	in := stdin
	if *current != "-" {
		f, err := os.Open(*current)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	cur, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: current: %v\n", err)
		return 2
	}

	trackedInBase := 0
	for name := range base {
		if tracked.MatchString(name) {
			trackedInBase++
		}
	}
	if trackedInBase == 0 {
		fmt.Fprintln(stderr, "benchdiff: baseline has no tracked benchmarks; nothing would gate")
		return 2
	}

	rows := compare(base, cur, tracked, *threshold)
	writeTable(stdout, rows, *threshold)
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: summary: %v\n", err)
			return 2
		}
		writeMarkdown(f, rows, *threshold, baseCommit)
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "benchdiff: summary: %v\n", err)
			return 2
		}
	}

	failed := false
	for _, r := range rows {
		if r.tracked && (r.missing || r.regressed) {
			failed = true
			fmt.Fprintf(stderr, "benchdiff: %s: %s\n", r.name, status(r))
		}
	}
	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: all tracked benchmarks within threshold")
	return 0
}
