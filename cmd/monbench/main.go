// Command monbench regenerates the paper's Table 1: the overhead ratio
// of the augmented monitor construct (history recording + periodic
// fault detection) over the bare monitor, swept across checking
// intervals and the three monitor-class workloads.
//
//	monbench                      # paper-scale sweep (0.5s, 1s, 2s, 3s)
//	monbench -quick               # scaled-down sweep for a fast look
//	monbench -intervals 250ms,1s  # custom intervals
//	monbench -arch                # print the Figure 1 architecture
//	monbench ... -json E2.json    # also write a machine-readable artefact
//
// Absolute ratios depend on the host; the paper's shape — the ratio
// falls as the checking interval grows — is what to compare. Every
// sweep also reports events/sec (recording throughput); -json persists
// the sweep (config, rows, events/sec) as a JSON artefact. The
// performance gate is the end-to-end benchmark in bench/, compared
// with the parent commit by scripts/benchgate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"robustmon/internal/experiment"
)

// benchArtefact is the schema of the -json artefact.
type benchArtefact struct {
	// Kind is "E2-overhead".
	Kind string `json:"kind"`
	// GeneratedAt is the RFC 3339 UTC instant the sweep finished.
	GeneratedAt string `json:"generated_at"`
	// Config echoes the sweep parameters so rows are comparable.
	Config map[string]any `json:"config"`
	// Rows hold one entry per sweep cell; events_per_sec is the
	// headline trajectory metric.
	Rows []map[string]any `json:"rows"`
}

// writeArtefact marshals the artefact to path (pretty-printed, so
// diffs between PRs stay reviewable).
func writeArtefact(path string, a benchArtefact) error {
	blob, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o666)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool against args, writing to out/errOut; split from
// main for testability.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("monbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		arch      = fs.Bool("arch", false, "print the Figure 1 architecture and exit")
		quick     = fs.Bool("quick", false, "scaled-down sweep (ms intervals, fewer ops)")
		intervals = fs.String("intervals", "", "comma-separated checking intervals (e.g. 500ms,1s,2s,3s)")
		ops       = fs.Int("ops", 0, "monitor operations per measurement (0 = default)")
		procs     = fs.Int("procs", 0, "concurrent processes (0 = default)")
		repeats   = fs.Int("repeats", 0, "repetitions per cell (0 = default)")
		workloads = fs.String("workloads", "", "comma-separated workloads: coordinator,allocator,manager")
		suspend   = fs.Duration("suspend", 0, "simulated per-checkpoint process-suspension cost (models the 2001 JVM prototype; 0 = native)")
		jsonPath  = fs.String("json", "", "also write the sweep results as a JSON artefact to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *arch {
		fmt.Fprint(out, experiment.Figure1().String())
		if err := experiment.VerifyFigure1(); err != nil {
			fmt.Fprintf(errOut, "monbench: architecture verification FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintln(out, "\narchitecture verified: every edge carries data (E3)")
		return 0
	}

	cfg := experiment.DefaultOverheadConfig()
	if *quick {
		cfg.Intervals = []time.Duration{
			5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 30 * time.Millisecond,
		}
		cfg.Ops = 4000
		cfg.Repeats = 2
	}
	if *intervals != "" {
		cfg.Intervals = nil
		for _, s := range strings.Split(*intervals, ",") {
			d, err := time.ParseDuration(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(errOut, "monbench: bad interval %q: %v\n", s, err)
				return 2
			}
			cfg.Intervals = append(cfg.Intervals, d)
		}
	}
	if *workloads != "" {
		cfg.Workloads = nil
		for _, s := range strings.Split(*workloads, ",") {
			cfg.Workloads = append(cfg.Workloads, experiment.Workload(strings.TrimSpace(s)))
		}
	}
	if *ops > 0 {
		cfg.Ops = *ops
	}
	if *procs > 0 {
		cfg.Procs = *procs
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	cfg.SuspendOverhead = *suspend

	fmt.Fprintf(out, "E2 (Table 1): ops=%d procs=%d repeats=%d suspend=%v\n\n",
		cfg.Ops, cfg.Procs, cfg.Repeats, cfg.SuspendOverhead)
	rows, err := experiment.RunOverhead(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "monbench: %v\n", err)
		return 1
	}
	fmt.Fprint(out, experiment.Table1(rows).String())
	fmt.Fprintln(out)
	detail := experiment.NewTable("workload", "interval", "checks", "events", "ratio", "events/sec")
	for _, r := range rows {
		// Events are summed over cfg.Repeats extended runs of mean
		// duration r.Extended, so throughput is Events/(Repeats·Extended).
		var eps float64
		if total := r.Extended.Seconds() * float64(cfg.Repeats); total > 0 {
			eps = float64(r.Events) / total
		}
		detail.AddRow(string(r.Workload), r.Interval.String(),
			fmt.Sprint(r.Checks), fmt.Sprint(r.Events),
			experiment.FormatRatio(r.Ratio), experiment.FormatEventsPerSec(eps))
	}
	fmt.Fprint(out, detail.String())
	fmt.Fprintln(out, "\npaper's shape check: ratio should fall as the interval grows;")
	fmt.Fprintln(out, "the paper reports ≈7x at 0.5s falling toward ≈4x at 3.0s (2001 JVM).")
	art := benchArtefact{
		Kind:        "E2-overhead",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Config: map[string]any{
			"ops": cfg.Ops, "procs": cfg.Procs, "repeats": cfg.Repeats,
			"suspend_ns": cfg.SuspendOverhead.Nanoseconds(),
		},
	}
	for _, r := range rows {
		var eps float64
		if total := r.Extended.Seconds() * float64(cfg.Repeats); total > 0 {
			eps = float64(r.Events) / total
		}
		art.Rows = append(art.Rows, map[string]any{
			"workload": string(r.Workload), "interval_ns": r.Interval.Nanoseconds(),
			"ratio": r.Ratio, "checks": r.Checks, "events": r.Events,
			"events_per_sec": eps,
		})
	}
	if *jsonPath != "" {
		if err := writeArtefact(*jsonPath, art); err != nil {
			fmt.Fprintf(errOut, "monbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
	}
	return 0
}
