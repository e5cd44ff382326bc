package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const baselineText = `goos: linux
BenchmarkSweep/workers=1         	     855	   1000000 ns/op	     44383 predictions/s	   75637 B/op	     651 allocs/op
BenchmarkKernelRun 	   83017	     15000 ns/op	     512 B/op	       8 allocs/op
BenchmarkProfileColdStart/replay 	       2	 859307078 ns/op	70923152 B/op	    9842 allocs/op
BenchmarkUntrackedThing 	    1000	      5000 ns/op	      10 allocs/op
PASS
ok  	repro	16.5s
`

// writeBaseline writes a baseline file (raw text) and returns its path.
func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runDiff(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestGate(t *testing.T) {
	base := writeBaseline(t, baselineText)
	cases := []struct {
		name     string
		current  string
		want     int
		inStdout string
		inStderr string
	}{
		{
			name: "within threshold",
			current: `BenchmarkSweep/workers=1 	 900	   1100000 ns/op	 75637 B/op	     651 allocs/op
BenchmarkKernelRun 	   90000	     14000 ns/op	     512 B/op	       8 allocs/op
BenchmarkProfileColdStart/replay 	       2	 900000000 ns/op	70923152 B/op	    9842 allocs/op
`,
			want:     0,
			inStdout: "all tracked benchmarks within threshold",
		},
		{
			name: "ns/op regression",
			current: `BenchmarkSweep/workers=1 	 900	   1400000 ns/op	 75637 B/op	     651 allocs/op
BenchmarkKernelRun 	   90000	     14000 ns/op	     512 B/op	       8 allocs/op
BenchmarkProfileColdStart/replay 	       2	 900000000 ns/op	70923152 B/op	    9842 allocs/op
`,
			want:     1,
			inStdout: "REGRESSION",
			inStderr: "BenchmarkSweep/workers=1",
		},
		{
			name: "allocs regression with flat ns/op",
			current: `BenchmarkSweep/workers=1 	 900	   1000000 ns/op	 75637 B/op	     900 allocs/op
BenchmarkKernelRun 	   90000	     15000 ns/op	     512 B/op	       8 allocs/op
BenchmarkProfileColdStart/replay 	       2	 859307078 ns/op	70923152 B/op	    9842 allocs/op
`,
			want:     1,
			inStdout: "REGRESSION",
		},
		{
			name: "improvement",
			current: `BenchmarkSweep/workers=1 	 900	    500000 ns/op	 75637 B/op	     400 allocs/op
BenchmarkKernelRun 	   90000	      8000 ns/op	     512 B/op	       4 allocs/op
BenchmarkProfileColdStart/replay 	       4	 400000000 ns/op	70923152 B/op	    5000 allocs/op
`,
			want:     0,
			inStdout: "all tracked benchmarks within threshold",
		},
		{
			name: "missing tracked benchmark",
			current: `BenchmarkSweep/workers=1 	 900	   1000000 ns/op	 75637 B/op	     651 allocs/op
BenchmarkProfileColdStart/replay 	       2	 859307078 ns/op	70923152 B/op	    9842 allocs/op
`,
			want:     1,
			inStdout: "MISSING",
			inStderr: "BenchmarkKernelRun",
		},
		{
			name: "untracked regression does not gate",
			current: `BenchmarkSweep/workers=1 	 900	   1000000 ns/op	 75637 B/op	     651 allocs/op
BenchmarkKernelRun 	   90000	     15000 ns/op	     512 B/op	       8 allocs/op
BenchmarkProfileColdStart/replay 	       2	 859307078 ns/op	70923152 B/op	    9842 allocs/op
BenchmarkUntrackedThing 	    1000	     50000 ns/op	      99 allocs/op
`,
			want:     0,
			inStdout: "untracked",
		},
		{
			name:     "malformed current input",
			current:  "BenchmarkSweep/workers=1 garbage without numbers\n",
			want:     2,
			inStderr: "malformed bench line",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runDiff(t, []string{"-baseline", base}, tc.current)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.want, stdout, stderr)
			}
			if tc.inStdout != "" && !strings.Contains(stdout, tc.inStdout) {
				t.Errorf("stdout missing %q:\n%s", tc.inStdout, stdout)
			}
			if tc.inStderr != "" && !strings.Contains(stderr, tc.inStderr) {
				t.Errorf("stderr missing %q:\n%s", tc.inStderr, stderr)
			}
		})
	}
}

func TestJSONBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_TEST.json")
	content := `{
  "commit": "abc123",
  "generated_by": "test",
  "bench": [
    "goos: linux",
    "BenchmarkSweep/workers=1 \t 855\t   1000000 ns/op\t   75637 B/op\t     651 allocs/op",
    "BenchmarkKernelRun \t   83017\t     15000 ns/op\t     512 B/op\t       8 allocs/op",
    "PASS"
  ]
}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	current := `BenchmarkSweep/workers=1 	 900	   1050000 ns/op	 75637 B/op	     651 allocs/op
BenchmarkKernelRun 	   90000	     15100 ns/op	     512 B/op	       8 allocs/op
`
	summary := filepath.Join(t.TempDir(), "summary.md")
	code, stdout, stderr := runDiff(t,
		[]string{"-baseline", path, "-summary", summary}, current)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	md, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"### Benchmark gate", "abc123", "BenchmarkKernelRun", "| ok |"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}
}

func TestBestOfRepeatedRuns(t *testing.T) {
	base := writeBaseline(t, "BenchmarkKernelRun \t 1000\t 15000 ns/op\t 512 B/op\t 8 allocs/op\n")
	// Three -count runs; only the best must be compared (14000 passes,
	// mean would not).
	current := `BenchmarkKernelRun 	 1000	 25000 ns/op	 512 B/op	 8 allocs/op
BenchmarkKernelRun 	 1000	 14000 ns/op	 512 B/op	 8 allocs/op
BenchmarkKernelRun 	 1000	 30000 ns/op	 512 B/op	 8 allocs/op
`
	code, stdout, stderr := runDiff(t, []string{"-baseline", base}, current)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestGomaxprocsSuffixStripped(t *testing.T) {
	base := writeBaseline(t, "BenchmarkKernelRun \t 1000\t 15000 ns/op\t 8 allocs/op\n")
	current := "BenchmarkKernelRun-8 \t 1000\t 15000 ns/op\t 8 allocs/op\n"
	code, stdout, stderr := runDiff(t, []string{"-baseline", base}, current)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runDiff(t, nil, ""); code != 2 {
		t.Errorf("missing -baseline: exit %d, want 2", code)
	}
	base := writeBaseline(t, baselineText)
	if code, _, _ := runDiff(t, []string{"-baseline", base, "-threshold", "-1"}, ""); code != 2 {
		t.Errorf("negative threshold: exit %d, want 2", code)
	}
	if code, _, _ := runDiff(t, []string{"-baseline", base, "-tracked", "("}, ""); code != 2 {
		t.Errorf("bad regexp: exit %d, want 2", code)
	}
	if code, _, _ := runDiff(t, []string{"-baseline", filepath.Join(t.TempDir(), "nope.json")}, ""); code != 2 {
		t.Errorf("absent baseline: exit %d, want 2", code)
	}
	// A baseline whose tracked set is empty cannot gate anything.
	empty := writeBaseline(t, "BenchmarkUntrackedThing \t 1000\t 5000 ns/op\t 10 allocs/op\n")
	if code, _, _ := runDiff(t, []string{"-baseline", empty}, ""); code != 2 {
		t.Errorf("no tracked in baseline: exit %d, want 2", code)
	}
}

func TestDefaultTrackedSet(t *testing.T) {
	re := regexp.MustCompile(defaultTracked)
	for _, name := range []string{
		"BenchmarkSweep", "BenchmarkKernelRun",
		"BenchmarkProfileColdStart", "BenchmarkStoreColdStart", "BenchmarkFleetSweep",
		"BenchmarkProfileFrontendRecord/mcf", "BenchmarkProfileReplay/gamess",
	} {
		if !re.MatchString(name) {
			t.Errorf("%s not tracked by default", name)
		}
	}
	for _, name := range []string{"BenchmarkFleet", "BenchmarkUntrackedThing", "BenchmarkRing", "BenchmarkProfileDirect"} {
		if re.MatchString(name) {
			t.Errorf("%s unexpectedly tracked", name)
		}
	}
}
