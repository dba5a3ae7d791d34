package main

import (
	"fmt"
	"time"
)

// A measured phase is split into windows — the augmented slices of the
// slice workloads, passes over the query list in trace-query — and
// every windowed metric is the median over the windows. A few seconds of
// interference from other tenants of the machine then move one or two
// windows, not the run's result.

// windows holds each window's op count, wall time and one latency
// histogram per load process.
type windows struct {
	lanes int
	ops   []int64
	wall  []time.Duration
	res   [][]*hist // [window][load process]
}

// newWindows allocates n windows up front.
func newWindows(n, lanes int) *windows {
	w := &windows{lanes: lanes}
	for k := 0; k < n; k++ {
		w.grow()
	}
	return w
}

// grow appends a window and returns its index.
func (w *windows) grow() int {
	k := len(w.res)
	rs := make([]*hist, w.lanes)
	for l := range rs {
		rs[l] = new(hist)
	}
	w.ops = append(w.ops, 0)
	w.wall = append(w.wall, 0)
	w.res = append(w.res, rs)
	return k
}

// drop removes the last window.
func (w *windows) drop() {
	n := len(w.res) - 1
	w.ops, w.wall, w.res = w.ops[:n], w.wall[:n], w.res[:n]
}

// done records window k's op count and wall time.
func (w *windows) done(k int, s sliceRun) { w.ops[k], w.wall[k] = s.ops, s.wall }

// all merges every histogram into one of the whole phase.
func (w *windows) all() *hist {
	var hs []*hist
	for _, row := range w.res {
		hs = append(hs, row...)
	}
	return mergeHists(hs...)
}

// publish writes ops_per_s and the op latency quantiles. A quantile
// that some window cannot publish (fewer than minBeyond samples above
// it) is taken over the whole phase instead.
func (w *windows) publish(r *report) {
	rates := make([]float64, len(w.ops))
	for k := range rates {
		rates[k] = perSecond(w.ops[k], w.wall[k])
	}
	r.put(windowed("ops_per_s", "ops/s", rates, 0))
	for _, q := range latencyQuantiles {
		vals, n, ok := w.quantiles(q.p)
		if !ok {
			r.setQuantile(q.name+"_us", "us", w.all(), q.p, 1e3)
			continue
		}
		for k := range vals {
			vals[k] /= 1e3
		}
		r.put(windowed(q.name+"_us", "us", vals, n))
	}
}

// latencyQuantiles are the op latency quantiles every windowed phase
// reports.
var latencyQuantiles = []struct {
	name string
	p    float64
}{{"op_latency_p50", 0.50}, {"op_latency_p99", 0.99}}

// quantiles returns each window's p-quantile in nanoseconds and the
// samples behind them; ok is false when some window cannot publish it.
func (w *windows) quantiles(p float64) (vals []float64, samples int64, ok bool) {
	for k := range w.res {
		h := mergeHists(w.res[k]...)
		v, err := h.quantile(p)
		if err != nil {
			return nil, 0, false
		}
		vals = append(vals, float64(v))
		samples += h.n
	}
	return vals, samples, true
}

// windowed is a metric taken as the median of per-window values.
func windowed(name, unit string, vals []float64, samples int64) metric {
	v := median(vals)
	return metric{Name: name, Unit: unit, Value: &v, Samples: samples,
		Note: fmt.Sprintf("median over %d windows", len(vals)), Series: vals}
}
