package service

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/wire"
)

// benchRows synthesizes the compare-sweep grid the stream benchmarks
// serialize: 16 four-wide mixes by 6 configs with both metric blocks,
// mirroring internal/wire's benchGrid.
func benchRows() (wire.StreamHeader, []ScenarioResult) {
	hdr := wire.StreamHeader{Kind: "compare"}
	for c := 0; c < 6; c++ {
		hdr.Configs = append(hdr.Configs, fmt.Sprintf("config#%d", c+1))
	}
	for m := 0; m < 16; m++ {
		mix := make([]string, 4)
		for p := range mix {
			mix[p] = fmt.Sprintf("bench-%02d", (m+p)%13)
		}
		hdr.Mixes = append(hdr.Mixes, mix)
	}
	var rows []ScenarioResult
	for c, cfg := range hdr.Configs {
		for m, mix := range hdr.Mixes {
			f := func(k int) float64 { return 0.4 + float64((c*31+m*7+k)%97)/41.0 }
			metrics := func(off int) *Metrics {
				return &Metrics{
					Benchmarks: mix,
					SingleCPI:  []float64{f(off), f(off + 1), f(off + 2), f(off + 3)},
					MultiCPI:   []float64{f(off + 4), f(off + 5), f(off + 6), f(off + 7)},
					Slowdown:   []float64{f(off + 8), f(off + 9), f(off + 10), f(off + 11)},
					STP:        f(off + 12), ANTT: f(off + 13), Iterations: 3,
				}
			}
			rows = append(rows, ScenarioResult{
				Mix: mix, Config: cfg,
				Prediction:  metrics(0),
				Measurement: metrics(17),
				STPError:    f(40), ANTTError: f(41),
			})
		}
	}
	return hdr, rows
}

// BenchmarkEvalStreamNDJSON measures the NDJSON response encode path
// exactly as the shared producer runs it: one pooled compact-JSON
// encode per row, with the line retained (it lives on in the coalescer
// replay log).
func BenchmarkEvalStreamNDJSON(b *testing.B) {
	_, rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			line, err := appendRowLine(nil, &rows[j])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Discard.Write(line); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkEvalStreamWire is the binary counterpart: the same grid
// serialized as wire frames. The acceptance bar for the format is >=2x
// the NDJSON rows/s at lower allocs/row (see the benchdiff gate).
func BenchmarkEvalStreamWire(b *testing.B) {
	hdr, rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := wire.NewWriter(io.Discard, hdr)
		if err != nil {
			b.Fatal(err)
		}
		for j := range rows {
			if err := w.WriteRow(&rows[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkCoalescedEval measures the broadcast machinery itself: one
// producer appending a full grid into the shared replay log while four
// subscribers tail it live — the fan-out cost a coalesced request adds
// on top of the single engine evaluation.
func BenchmarkCoalescedEval(b *testing.B) {
	_, rows := benchRows()
	const readers = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &coalescer{inflight: make(map[string]*sharedEval)}
		ctx, cancel := context.WithCancel(context.Background())
		se := &sharedEval{key: "bench", c: c, ctx: ctx, cancel: cancel,
			notify: make(chan struct{}), subs: readers}
		c.inflight["bench"] = se
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := 0; ; idx++ {
					_, ev, err := se.next(context.Background(), idx)
					if ev == evRow {
						continue
					}
					if ev != evEnd {
						b.Errorf("subscriber ended with %v, %v", ev, err)
					}
					return
				}
			}()
		}
		for j := range rows {
			se.append(rows[j])
		}
		se.finish(nil)
		wg.Wait()
		cancel()
	}
	b.ReportMetric(float64(len(rows)*readers)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
