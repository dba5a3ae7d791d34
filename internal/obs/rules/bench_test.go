package obsrules

import (
	"fmt"
	"testing"
	"time"

	"robustmon/internal/obs"
)

// BenchmarkEval times one Eval of 64 ceiling rules over a snapshot of
// 256 series, the rule engine's cost per health checkpoint. quiet keeps
// every watched value under its ceiling (the steady state, which
// TestEvalNoFireAllocs pins at zero allocations); flapping swaps in a
// breaching snapshot every 50 evals, so every rule fires and clears
// once per 100.
func BenchmarkEval(b *testing.B) {
	const rules, series, flapEvery = 64, 256, 50
	for _, flapping := range []bool{false, true} {
		name := "quiet"
		if flapping {
			name = "flapping"
		}
		b.Run(name, func(b *testing.B) {
			reg := obs.NewRegistry()
			rs := make([]Rule, rules)
			for i := range rs {
				metric := fmt.Sprintf("watched_%d", i)
				reg.Gauge(metric).Set(1)
				rs[i] = Rule{Name: fmt.Sprintf("rule-%d", i), Metric: metric, Ceiling: 5}
			}
			// Unwatched filler, so Eval pays a realistic snapshot lookup.
			for i := rules; i < series; i++ {
				reg.Counter(fmt.Sprintf("filler_%d", i)).Add(int64(i))
			}
			e, err := New(reg, rs...)
			if err != nil {
				b.Fatal(err)
			}
			clear := reg.Snapshot()
			for _, r := range rs {
				reg.Gauge(r.Metric).Set(9)
			}
			breaching := reg.Snapshot()
			// A fire and a clear size dst before the timer starts and
			// leave every rule cleared.
			dst := e.Eval(nil, at(0), 0, breaching)
			dst = e.Eval(dst[:0], at(0), 0, clear)
			snap, high, transitions := clear, false, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if flapping && i%flapEvery == 0 {
					high = !high
					snap = clear
					if high {
						snap = breaching
					}
				}
				dst = e.Eval(dst[:0], at(0).Add(time.Duration(i)*time.Millisecond), int64(i), snap)
				transitions += len(dst)
			}
			b.ReportMetric(float64(transitions)/float64(b.N), "transitions/op")
		})
	}
}
