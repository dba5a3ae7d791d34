// Command bench is robustmon's end-to-end benchmark. It runs the real
// apps, detector, exporter and sinks on four workloads, checks their
// output, and prints every metric by name and unit.
//
//	go run . -workload all -seed 1          (from this directory)
//	bash bench/run.sh --workload buffer-wal --seed 1 --seconds 30 --trace 0
//
// -trace 1 adds a second, traced pass whose wrappers around each
// layer's entry points give the per-layer metrics. The last line of
// standard output is one JSON object: for a single workload, its result
// in the form BENCHMARK.json describes; for -workload all, every
// workload's. -json also writes the full report, every metric with its
// sample count or the reason it was not published, to a file. See
// README.md for the metric catalogue.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// procStart is taken as the program starts; the first set-up of a run
// is timed from here.
var procStart = time.Now()

// workDir holds the runs' files and the span files of traced runs,
// relative to the working directory (the checkout root when started
// through run.sh).
const workDir = ".bench_build/work"

type workloadDef struct {
	name string
	run  func(e *env) error
	// listed marks the workloads BENCHMARK.json lists: those with a bare
	// app to measure the end-to-end ratios against.
	listed bool
}

var workloads = []workloadDef{
	{"buffer-wal", runBufferWAL, true},
	{"fanout-fleet", runFanout, true},
	{"alloc-faults", runAllocFaults, true},
	// trace-query answers queries over a recorded trace; a query has no
	// bare counterpart, so it reports absolute times only.
	{"trace-query", runTraceQuery, false},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	json     string
	// traceEvents is trace-query's trace size (queryTraceEvents; tests
	// use a smaller one).
	traceEvents int
	start       time.Time
	workDir     string
}

// goProcs is how many goroutines run Go code at once. With one, the
// result is the whole pipeline's CPU cost — load, checkpoints, export,
// collector — on one CPU, and does not depend on how the scheduler
// spreads those goroutines over the machine's CPUs: with two, a
// monitor call took 0.8 µs or 1.3 µs for seconds at a time depending on
// which goroutines shared a CPU. The second CPU is left to the kernel's
// share of the work (fsync, loopback TCP) and to the rest of the
// machine.
const goProcs = 1

func main() {
	runtime.GOMAXPROCS(goProcs)
	os.Exit(run(os.Args[1:], workDir, os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the workloads with their
// files under dir, and returns the exit code.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, buffer-wal, fanout-fleet, alloc-faults or trace-query")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 30, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the full report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -workload, -seed, -seconds >= 1, -trace 0|1 and -json only")
		return 2
	}
	o := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		json: *jsonOut, traceEvents: queryTraceEvents, start: procStart, workDir: dir,
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := lookup(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	rep, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rep.writeText(stdout)
	if err := writeJSON(o.json, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := rep.resultLine()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runWorkload runs one workload: its untraced pass and, with trace, a
// traced pass, and returns the combined report.
func runWorkload(w workloadDef, o options) (*report, error) {
	if err := os.MkdirAll(o.workDir, 0o777); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	fail := &failures{}
	e := &env{
		seed: o.seed, seconds: o.seconds, start: o.start,
		root: root, fail: fail, rep: rep, traceEvents: o.traceEvents,
	}
	if err := w.run(e); err != nil {
		return nil, err
	}
	attempted := e.attempted
	if o.trace {
		traced := &report{}
		te := &env{
			seed: o.seed, seconds: o.seconds, start: time.Now(),
			root: root, tr: newTracer(), fail: fail, rep: traced, traceEvents: o.traceEvents,
		}
		if err := w.run(te); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		attempted += te.attempted
		// The untraced pass's values stand; the traced pass adds the
		// per-layer metrics.
		for _, m := range traced.Metrics {
			if _, ok := rep.get(m.Name); !ok {
				rep.put(m)
			}
		}
		plain, okP := rep.get("ops_per_s")
		withTrace, okT := traced.get("ops_per_s")
		if okP && okT && plain.Value != nil && withTrace.Value != nil && *plain.Value > 0 {
			rep.set("trace.overhead_pct", "%", 100*(*plain.Value-*withTrace.Value) / *plain.Value)
		}
		spans := filepath.Join(o.workDir, "spans-"+w.name+".json")
		if err := te.tr.writeSpans(spans, w.name, o.seed); err != nil {
			return nil, err
		}
	}
	rep.Attempted = max(attempted, 1)
	rep.Failed = fail.count()
	rep.Failures = fail.messages()
	rep.Correct = rep.Failed == 0
	rep.set("fail_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	return rep, nil
}

// runAll runs every workload in a fresh child process of this program,
// so one workload's heap and collector state cannot carry into the
// next, and combines their reports.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.workDir, 0o777); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	var reps []*report
	code := 0
	for _, w := range workloads {
		out := filepath.Join(o.workDir, "report-"+w.name+".json")
		if err := os.Remove(out); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-json", out)
		cmd.Stderr = stderr
		text, runErr := cmd.Output()
		// Everything but the child's last line is its readable report.
		if i := bytes.LastIndexByte(bytes.TrimRight(text, "\n"), '\n'); i >= 0 {
			stdout.Write(text[:i+1])
		}
		data, err := os.ReadFile(out)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s produced no report: %v\n", w.name, errors.Join(runErr, err))
			code = 1
			continue
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			fmt.Fprintf(stderr, "bench: %s report: %v\n", w.name, err)
			code = 1
			continue
		}
		if runErr != nil || !rep.Correct {
			code = 1
		}
		reps = append(reps, &rep)
	}
	if err := writeJSON(o.json, reps); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	summary := make(map[string]json.RawMessage, len(reps))
	for _, r := range reps {
		line, err := r.resultLine()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		summary[r.Workload] = line
	}
	line, err := json.Marshal(map[string]any{"correct": code == 0, "workloads": summary})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// writeJSON writes v as indented JSON to path; an empty path writes
// nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
