package experiment

import (
	"strings"
	"testing"
	"time"

	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
)

// TestCoverageAllFaultKindsDetected is the E1 robustness experiment:
// inject every fault kind from the §2.2 taxonomy and verify the paper's
// headline result — "all injected faults are detected".
func TestCoverageAllFaultKindsDetected(t *testing.T) {
	t.Parallel()
	results := RunCoverage(faults.AllKinds())
	if len(results) != 21 {
		t.Fatalf("ran %d scenarios, want 21", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s (%s): scenario error: %v", r.Kind.Code(), r.Kind, r.Err)
			continue
		}
		if !r.Fired {
			t.Errorf("%s (%s): injection never fired", r.Kind.Code(), r.Kind)
			continue
		}
		if !r.Detected {
			t.Errorf("%s (%s): injected fault NOT detected", r.Kind.Code(), r.Kind)
		}
	}
	detected, total := Coverage(results)
	if detected != 21 || total != 21 {
		t.Fatalf("coverage = %d/%d, want 21/21", detected, total)
	}
}

// TestUserLevelFaultsCaughtInRealtime checks the paper's two-phase
// claim: user-process-level faults on allocator monitors are flagged by
// the real-time phase (except never-release, which only a timer can
// see).
func TestUserLevelFaultsCaughtInRealtime(t *testing.T) {
	t.Parallel()
	for _, k := range []faults.Kind{faults.ReleaseWithoutAcquire, faults.SelfDeadlock} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			res := runOne(k)
			if res.Err != nil {
				t.Fatalf("scenario error: %v", res.Err)
			}
			if !res.Realtime {
				t.Fatalf("fault %v not flagged by the real-time phase (rules: %v)", k, res.Rules)
			}
		})
	}
}

func TestCoverageTableRendersAllRows(t *testing.T) {
	t.Parallel()
	results := RunCoverage([]faults.Kind{faults.SignalMonitorNotReleased, faults.SelfDeadlock})
	tbl := CoverageTable(results).String()
	for _, want := range []string{"I.c.2", "III.c", "YES"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	summary := CoverageSummary(results)
	if !strings.Contains(summary, "2 / 2") {
		t.Errorf("summary = %q, want 2 / 2", summary)
	}
}

func TestSampleStats(t *testing.T) {
	t.Parallel()
	var s Sample
	if s.Mean() != 0 || s.N() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	s.Add(10 * time.Millisecond)
	s.Add(20 * time.Millisecond)
	s.Add(30 * time.Millisecond)
	if got := s.Mean(); got != 20*time.Millisecond {
		t.Fatalf("Mean = %v, want 20ms", got)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestRatioHelpers(t *testing.T) {
	t.Parallel()
	if got := Ratio(30*time.Millisecond, 10*time.Millisecond); got != 3.0 {
		t.Fatalf("Ratio = %v, want 3", got)
	}
	if got := Ratio(time.Second, 0); got != 0 {
		t.Fatalf("Ratio with zero base = %v, want 0", got)
	}
	if got := FormatRatio(4.4904); got != "4.490" {
		t.Fatalf("FormatRatio = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tbl := NewTable("a", "long-header")
	tbl.AddRow("x")
	tbl.AddRow("yyyy", "z")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("missing separator: %q", lines[1])
	}
}

func TestFormatEventsPerSec(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   float64
		want string
	}{
		{2_500_000, "2.50M"},
		{830_000, "830k"},
		{512, "512"},
	}
	for _, c := range cases {
		if got := FormatEventsPerSec(c.in); got != c.want {
			t.Errorf("FormatEventsPerSec(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestOverheadSmokeRun runs a miniature E2 sweep and checks its
// structural invariants: ratios above 1 (the extension costs
// something), zero violations on fault-free runs, and at least one
// checkpoint executed at the smallest interval.
func TestOverheadSmokeRun(t *testing.T) {
	t.Parallel()
	rows, err := RunOverhead(OverheadConfig{
		Intervals: []time.Duration{5 * time.Millisecond, 50 * time.Millisecond},
		Workloads: AllWorkloads(),
		Ops:       4000,
		Procs:     4,
		Repeats:   1,
	})
	if err != nil {
		t.Fatalf("RunOverhead: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 workloads × 2 intervals)", len(rows))
	}
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%s@%v: %d violations on a fault-free run", r.Workload, r.Interval, r.Violations)
		}
		if r.Base <= 0 || r.Extended <= 0 {
			t.Errorf("%s@%v: non-positive timings %v/%v", r.Workload, r.Interval, r.Base, r.Extended)
		}
		if r.Ratio <= 0 {
			t.Errorf("%s@%v: ratio %v", r.Workload, r.Interval, r.Ratio)
		}
	}
	tbl := Table1(rows).String()
	if !strings.Contains(tbl, "5ms") || !strings.Contains(tbl, "ratio") {
		t.Errorf("Table1 rendering missing expected cells:\n%s", tbl)
	}
}

func TestOverheadConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunOverhead(OverheadConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestDefaultOverheadConfigMatchesPaperSweep(t *testing.T) {
	t.Parallel()
	cfg := DefaultOverheadConfig()
	if len(cfg.Intervals) != 4 || cfg.Intervals[0] != 500*time.Millisecond {
		t.Fatalf("intervals = %v, want the paper's 0.5s..3s sweep", cfg.Intervals)
	}
	if len(cfg.Workloads) != 3 {
		t.Fatalf("workloads = %v", cfg.Workloads)
	}
}

// TestSuspendCheckerStallsFrozenWorld pins the E2 suspension model
// (OverheadConfig.SuspendOverhead): the stall lands inside each
// hold-world checkpoint's frozen window.
func TestSuspendCheckerStallsFrozenWorld(t *testing.T) {
	t.Parallel()
	const suspend = 5 * time.Millisecond
	db := history.New()
	buf, err := boundedbuffer.New(4, boundedbuffer.WithMonitorOptions(monitor.WithRecorder(db)))
	if err != nil {
		t.Fatal(err)
	}
	d := detect.New(db, detect.Config{
		Tmax:      time.Hour,
		Tio:       time.Hour,
		Tlimit:    time.Hour,
		Clock:     clock.Real{},
		HoldWorld: true,
		Extra:     []detect.Checker{suspendChecker(suspend)},
	}, buf.Monitor())
	d.CheckNow()
	d.CheckNow()
	if got := d.Stats().FrozenFor; got < 2*suspend {
		t.Fatalf("FrozenFor = %v after two checkpoints, want at least %v", got, 2*suspend)
	}
}

// TestArchitectureFigure1 verifies the structural reproduction E3: the
// live system is wired exactly as the paper's Figure 1 draws it.
func TestArchitectureFigure1(t *testing.T) {
	t.Parallel()
	arch := Figure1()
	if len(arch.Components) != 5 {
		t.Fatalf("architecture has %d components, want 5", len(arch.Components))
	}
	names := make(map[string]bool, len(arch.Components))
	for _, c := range arch.Components {
		names[c.Name] = true
	}
	for _, e := range arch.Edges {
		if !names[e.From] && e.From != "reports" {
			t.Errorf("edge from unknown component %q", e.From)
		}
		if !names[e.To] {
			t.Errorf("edge to unknown component %q", e.To)
		}
	}
	diagram := arch.String()
	for _, want := range []string{"monitor", "data gathering", "database", "fault detection", "reports"} {
		if !strings.Contains(diagram, want) {
			t.Errorf("diagram missing %q", want)
		}
	}
	if err := VerifyFigure1(); err != nil {
		t.Fatalf("VerifyFigure1: %v", err)
	}
}
