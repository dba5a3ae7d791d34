// Command benchgate runs the end-to-end benchmark of two checkouts in
// alternating pairs and fails when the second is worse than the first:
//
//	go run ./scripts/benchgate <base-checkout> <head-checkout>
//
// Each checkout's BENCHMARK.json names the command, the run length, the
// workloads and the end-to-end metrics with the bound by which each may
// worsen. For every workload both files list, the gate runs pairs pairs:
// pair i runs seed i on both sides, base first in even pairs and head
// first in odd ones, so drift on the host lands on both sides. A run is
//
//	<command> --workload W --seed S --seconds <run_seconds> --trace 0
//
// with the checkout as working directory; its last stdout line holds
// the result. The gate compares the median of each side per workload
// and metric, and fails when a metric is worse by more than its bound,
// when a metric is missing, or when the head's share of failed
// operations is higher than the base's. It prints one row per workload
// and metric and exits 1 on any failure.
//
// Ratios to the bare application (bench/README.md, "Why ratios") are
// what survive a change of host, so the gate needs no stored baseline:
// the parent commit, run beside the change, is the baseline.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"text/tabwriter"
)

// pairs is how many base/head pairs each workload runs.
const pairs = 5

// benchSpec is the part of BENCHMARK.json the gate reads.
type benchSpec struct {
	Command    []string     `json:"command"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
}

// workload is one benchmark workload.
type workload struct {
	Name string `json:"name"`
}

// metricSpec is one gated end-to-end metric.
type metricSpec struct {
	Name string `json:"name"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the relative change by which the metric may worsen.
	Bound float64 `json:"bound"`
}

// result is a run's last stdout line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// row is one verdict: a metric of a workload, as each side's median.
type row struct {
	workload, metric string
	base, head       float64
	// verdict is "ok", "WORSE" or "MISSING"; anything but "ok" fails.
	verdict string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it gates head against base and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchgate <base-checkout> <head-checkout>")
		return 2
	}
	dirs := [2]string{args[0], args[1]}
	var specs [2]benchSpec
	for i, dir := range dirs {
		s, err := readSpec(dir)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		specs[i] = s
	}
	if specs[0].RunSeconds != specs[1].RunSeconds {
		fmt.Fprintf(stderr, "benchgate: run_seconds differs (base %d, head %d); the gate compares equal run lengths\n",
			specs[0].RunSeconds, specs[1].RunSeconds)
		return 2
	}
	workloads, metrics, notGated := plan(specs[0], specs[1])
	for _, s := range notGated {
		fmt.Fprintf(stdout, "not gated: %s\n", s)
	}
	var rows []row
	for _, w := range workloads {
		var runs [2][]result
		for i := 1; i <= pairs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				fmt.Fprintf(stderr, "benchgate: %s pair %d/%d, %s\n", w, i, pairs, sideName[side])
				r, err := runOnce(dirs[side], specs[side], w, i, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchgate: %s %s seed %d: %v\n", sideName[side], w, i, err)
					return 1
				}
				runs[side] = append(runs[side], r)
			}
		}
		rows = append(rows, compare(w, metrics, runs[0], runs[1])...)
	}
	return report(stdout, rows)
}

var sideName = [2]string{"base", "head"}

// readSpec reads dir/BENCHMARK.json.
func readSpec(dir string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s/BENCHMARK.json: %w", dir, err)
	}
	if len(s.Command) == 0 || s.RunSeconds < 1 {
		return s, fmt.Errorf("%s/BENCHMARK.json: want a command and run_seconds >= 1", dir)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return s, fmt.Errorf("%s/BENCHMARK.json: metric %s: better is %q, want lower or higher", dir, m.Name, m.Better)
		}
	}
	return s, nil
}

// plan returns the workloads and metrics both specs list, in the base's
// order and with the base's bounds, plus a line for each one only one
// spec lists.
func plan(base, head benchSpec) (workloads []string, metrics []metricSpec, notGated []string) {
	ws, notGated := shared("workload", base.Workloads, head.Workloads, func(w workload) string { return w.Name })
	metrics, more := shared("metric", base.EndToEnd, head.EndToEnd, func(m metricSpec) string { return m.Name })
	for _, w := range ws {
		workloads = append(workloads, w.Name)
	}
	return workloads, metrics, append(notGated, more...)
}

// shared returns the items of base whose name head lists too, and a
// "not gated" line for each name only one side lists.
func shared[T any](kind string, base, head []T, name func(T) string) (both []T, notGated []string) {
	lists := func(items []T, n string) bool {
		return slices.ContainsFunc(items, func(t T) bool { return name(t) == n })
	}
	for _, t := range base {
		if lists(head, name(t)) {
			both = append(both, t)
		} else {
			notGated = append(notGated, kind+" "+name(t)+" (base only)")
		}
	}
	for _, t := range head {
		if !lists(base, name(t)) {
			notGated = append(notGated, kind+" "+name(t)+" (head only)")
		}
	}
	return both, notGated
}

// runOnce runs the benchmark of the checkout in dir for one workload
// and seed and returns its result line; the run's stderr goes to
// stderr.
func runOnce(dir string, s benchSpec, workload string, seed int, stderr io.Writer) (result, error) {
	args := append(slices.Clone(s.Command[1:]),
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(s.RunSeconds), "--trace", "0")
	cmd := exec.Command(s.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	return parseResult(out)
}

// parseResult decodes the last line of a run's stdout.
func parseResult(out []byte) (result, error) {
	var r result
	out = bytes.TrimRight(out, "\n")
	line := out[bytes.LastIndexByte(out, '\n')+1:]
	if err := json.Unmarshal(line, &r); err != nil {
		return r, fmt.Errorf("result line %q: %w", line, err)
	}
	if !r.Correct {
		return r, errors.New("run reported correct: false")
	}
	return r, nil
}

// compare turns one workload's runs into a row per metric plus one for
// the share of failed operations.
func compare(workload string, metrics []metricSpec, base, head []result) []row {
	var rows []row
	for _, m := range metrics {
		r := row{workload: workload, metric: m.Name, verdict: "MISSING"}
		b, okB := values(base, m.Name)
		h, okH := values(head, m.Name)
		if okB && okH {
			r.base, r.head = median(b), median(h)
			r.verdict = "ok"
			if worse(m, r.base, r.head) {
				r.verdict = "WORSE"
			}
		}
		rows = append(rows, r)
	}
	r := row{workload: workload, metric: "failed_share", base: failedShare(base), head: failedShare(head), verdict: "ok"}
	if r.head > r.base {
		r.verdict = "WORSE"
	}
	return append(rows, r)
}

// values returns the metric from every run, and false when a run (or
// every run, for an empty list) lacks it.
func values(runs []result, metric string) ([]float64, bool) {
	vs := make([]float64, 0, len(runs))
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok {
			return nil, false
		}
		vs = append(vs, m.Value)
	}
	return vs, len(vs) > 0
}

// worse reports whether head is worse than base by more than m's bound.
func worse(m metricSpec, base, head float64) bool {
	if m.Better == "higher" {
		return head < base*(1-m.Bound)
	}
	return head > base*(1+m.Bound)
}

// median returns the middle value, or the mean of the two middle values
// of an even count.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// failedShare is the runs' summed failed operations over their summed
// attempted ones.
func failedShare(runs []result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// report prints the rows as a table and returns 1 if any row failed.
func report(w io.Writer, rows []row) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\thead\tchange\tverdict")
	code := 0
	for _, r := range rows {
		change := "n/a"
		if r.base != 0 && r.verdict != "MISSING" {
			change = fmt.Sprintf("%+.1f%%", 100*(r.head-r.base)/r.base)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\n", r.workload, r.metric, r.base, r.head, change, r.verdict)
		if r.verdict != "ok" {
			code = 1
		}
	}
	tw.Flush()
	if code != 0 {
		fmt.Fprintln(w, "benchgate: FAILED")
	} else {
		fmt.Fprintln(w, "benchgate: passed")
	}
	return code
}
