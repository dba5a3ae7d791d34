package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// smokeTraceEvents shrinks trace-query's trace so the smoke test
// records it in a fraction of a second.
const smokeTraceEvents = 40_000

// TestWorkloadsReportEveryMetric runs every workload for one second,
// untraced and traced, and checks the output checks pass and the report
// names every per-layer metric, and every end-to-end metric on the
// workloads BENCHMARK.json lists. It asserts no timing value.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, options{
				workload: w.name, seed: 1, seconds: 1, trace: true,
				traceEvents: smokeTraceEvents, start: time.Now(), workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			want := perLayer
			if w.listed {
				want = slices.Concat(endToEnd, perLayer)
			}
			for _, d := range want {
				m, ok := rep.get(d.name)
				if !ok {
					t.Errorf("report lacks %s", d.name)
				} else if m.Unit != d.unit {
					t.Errorf("%s in %s, want %s", d.name, m.Unit, d.unit)
				}
			}
		})
	}
}

// result is the last output line of a single-workload run.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestCommandLine runs the command the way BENCHMARK.json does and
// checks its last line carries exactly the end-to-end metrics.
func TestCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out, errs bytes.Buffer
	args := []string{"--workload", "buffer-wal", "--seed", "3", "--seconds", "1", "--trace", "0"}
	if code := run(args, t.TempDir(), &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var c result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !c.Correct || c.Failed != 0 || c.Attempted < 1 {
		t.Errorf("result %+v", c)
	}
	if len(c.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(c.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := c.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v, present %v", d.name, m, ok)
		}
	}
}

func TestCommandLineRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--workload", "nope"},
		{"--workload", "buffer-wal", "extra"},
		{"--unknown"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, t.TempDir(), &out, &errs); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the repository's
// BENCHMARK.json and the metrics the program reports in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		if w.listed {
			want = append(want, w.name)
		}
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []def, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			g := got[i]
			ok := g.Name == d.name && g.Unit == d.unit && g.Better == d.better && (g.Bound != nil) == bounded
			if ok && bounded {
				ok = *g.Bound == d.bound
			}
			if !ok {
				t.Errorf("%s[%d] = %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
