package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every listed workload reports every one of them, so a
// change is judged on each (metric, workload) pair. The time metrics
// are ratios of augmented to bare slices a second apart: the shared
// two-CPU machines the benchmark runs on change speed by up to a half
// over minutes, which spreads absolute times (ops_per_s and the
// latencies in microseconds, in the full report) over runs by up to
// 50%, a ratio by at most 16%. See README.md for the measured spreads
// the bounds rest on; every bound is the widest BENCHMARK.json allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"overhead_ratio", "x", "lower", 0.25},
	{"op_latency_p50_ratio", "x", "lower", 0.25},
	{"op_latency_p99_ratio", "x", "lower", 0.25},
	{"alloc_bytes_per_op", "B/op", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced pass that every
// workload's write pipeline produces (trace-query's pipeline is the one
// that records its trace during set-up). Layer metrics of one workload
// only — realtime checking, the network hop, index queries — are in the
// full report.
var perLayer = []metricDef{
	{name: "history.append_ns_p50", unit: "ns", better: "lower"},
	{name: "history.append_ns_p99", unit: "ns", better: "lower"},
	{name: "history.appends_per_s", unit: "events/s", better: "higher"},
	{name: "detect.checkpoint_ns_p50", unit: "ns", better: "lower"},
	{name: "detect.checkpoint_ns_mean", unit: "ns", better: "lower"},
	{name: "detect.checkpoints_per_s", unit: "1/s", better: "higher"},
	{name: "detect.events_per_checkpoint_p50", unit: "events", better: "higher"},
	{name: "detect.ns_per_replayed_event", unit: "ns", better: "lower"},
	{name: "detect.busy_share", unit: "ratio", better: "lower"},
	{name: "export.consume_ns_p50", unit: "ns", better: "lower"},
	{name: "export.consume_ns_p90", unit: "ns", better: "lower"},
	{name: "export.queue_wait_us_p50", unit: "us", better: "lower"},
	{name: "export.queue_wait_us_p90", unit: "us", better: "lower"},
	{name: "export.write_us_p50", unit: "us", better: "lower"},
	{name: "export.write_us_p90", unit: "us", better: "lower"},
	{name: "export.records_per_s", unit: "records/s", better: "higher"},
	{name: "export.bytes_per_event", unit: "bytes", better: "lower"},
	{name: "pipeline.record_to_drain_ms_mean", unit: "ms", better: "lower"},
	{name: "pipeline.record_to_drain_ms_p50", unit: "ms", better: "lower"},
	{name: "pipeline.record_to_drain_ms_p99", unit: "ms", better: "lower"},
	{name: "pipeline.drain_to_write_ms_mean", unit: "ms", better: "lower"},
	{name: "pipeline.drain_to_write_ms_p50", unit: "ms", better: "lower"},
	{name: "pipeline.drain_to_write_ms_p99", unit: "ms", better: "lower"},
	{name: "pipeline.write_ms_mean", unit: "ms", better: "lower"},
	{name: "pipeline.write_to_durable_ms_mean", unit: "ms", better: "lower"},
	{name: "pipeline.write_to_durable_ms_p50", unit: "ms", better: "lower"},
	{name: "pipeline.write_to_durable_ms_p99", unit: "ms", better: "lower"},
	{name: "pipeline.record_to_durable_ms_mean", unit: "ms", better: "lower"},
	{name: "pipeline.record_to_durable_ms_p50", unit: "ms", better: "lower"},
	{name: "pipeline.record_to_durable_ms_p99", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// metric is one reported number. Value is nil when the metric could not
// be published; Note then says why.
type metric struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Value   *float64 `json:"value"`
	Samples int64    `json:"samples,omitempty"`
	Note    string   `json:"note,omitempty"`
	// Series holds the per-window values a windowed metric was taken
	// from, in run order, so drift within a run can be seen.
	Series []float64 `json:"series,omitempty"`
}

// report is everything one workload run measured and checked.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// set records a published value, replacing any earlier one of that name.
func (r *report) set(name, unit string, v float64) {
	r.put(metric{Name: name, Unit: unit, Value: &v})
}

// setNull records a metric that could not be published.
func (r *report) setNull(name, unit, why string) {
	r.put(metric{Name: name, Unit: unit, Note: why})
}

// setQuantile publishes the p-quantile of h divided by scale (to turn
// nanoseconds into the metric's unit), with the sample count.
func (r *report) setQuantile(name, unit string, h *hist, p, scale float64) {
	v, err := h.quantile(p)
	if err != nil {
		r.put(metric{Name: name, Unit: unit, Samples: h.n, Note: err.Error()})
		return
	}
	f := float64(v) / scale
	r.put(metric{Name: name, Unit: unit, Value: &f, Samples: h.n})
}

// setMean publishes the mean of h divided by scale.
func (r *report) setMean(name, unit string, h *hist, scale float64) {
	if h.n == 0 {
		r.setNull(name, unit, "no samples")
		return
	}
	f := h.mean() / scale
	r.put(metric{Name: name, Unit: unit, Value: &f, Samples: h.n})
}

func (r *report) put(m metric) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == m.Name {
			r.Metrics[i] = m
			return
		}
	}
	r.Metrics = append(r.Metrics, m)
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// resultLine renders the one-line result BENCHMARK.json describes: the
// end-to-end metrics for an untraced run, the per-layer ones for a
// traced run. A metric the run could not publish is left out (the full
// report carries the reason); the listed workloads publish every
// end-to-end metric.
func (r *report) resultLine() ([]byte, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(defs))
	for _, d := range defs {
		if m, ok := r.get(d.name); ok && m.Value != nil {
			ms[d.name] = val{Value: *m.Value, Unit: d.unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// writeText prints the report as an aligned table.
func (r *report) writeText(w io.Writer) {
	verdict := "ok"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v: %s (%d attempted, %d failed)\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, verdict, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
	for _, m := range r.Metrics {
		val := "null"
		if m.Value != nil {
			val = formatValue(*m.Value)
		}
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", m.Samples)
		}
		if m.Note != "" {
			extra += "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "   %-40s %16s %-9s%s\n", m.Name, val, m.Unit, extra)
	}
}

// formatValue prints a value with all its significant digits.
func formatValue(v float64) string {
	if v != 0 && (math.Abs(v) >= 1e7 || math.Abs(v) < 1e-3) {
		return fmt.Sprintf("%.6e", v)
	}
	return fmt.Sprintf("%.6f", v)
}

// failures collects failed operations and check violations. It is safe
// for concurrent use: detector callbacks report from their own
// goroutines.
type failures struct {
	mu   sync.Mutex
	n    int64
	msgs []string
}

// maxFailureMessages bounds how many failure descriptions a report
// keeps; the count is always exact.
const maxFailureMessages = 20

func (f *failures) add(n int64, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n += n
	if len(f.msgs) < maxFailureMessages {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *failures) messages() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.msgs...)
}

// perSecond divides a count by a duration in seconds (0 for an empty
// duration).
func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
