package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestScalingSmokeRun(t *testing.T) {
	t.Parallel()
	cfg := ScalingConfig{
		Monitors:        []int{1, 3},
		OpsPerMonitor:   200,
		ProcsPerMonitor: 2,
		Interval:        2 * time.Millisecond,
	}
	rows, err := RunScaling(cfg)
	if err != nil {
		t.Fatalf("RunScaling: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 counts × 2 modes)", len(rows))
	}
	for _, r := range rows {
		wantEvents := int64(r.Monitors) * 200
		if r.Events != wantEvents {
			t.Fatalf("row %+v: events = %d, want %d", r, r.Events, wantEvents)
		}
		if r.Checks < 1 {
			t.Fatalf("row %+v: no checkpoints ran", r)
		}
		if r.EventsPerSec <= 0 {
			t.Fatalf("row %+v: non-positive throughput", r)
		}
	}
	table := ScalingTable(rows).String()
	for _, want := range []string{"hold-world", "per-monitor", "events/sec"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestScalingAdaptiveBatchedVariant(t *testing.T) {
	t.Parallel()
	cfg := ScalingConfig{
		Monitors:        []int{2},
		OpsPerMonitor:   200,
		ProcsPerMonitor: 2,
		Interval:        2 * time.Millisecond,
		Adaptive:        true,
		BatchSize:       16,
	}
	rows, err := RunScaling(cfg)
	if err != nil {
		t.Fatalf("RunScaling(adaptive): %v", err)
	}
	// 1 count × 2 checkpoint modes × 2 scheduler modes.
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.CheckpointName()+"/"+r.SchedName()] = true
		if r.BatchSize != 16 {
			t.Fatalf("row %+v: batch size not threaded through", r)
		}
		if r.Events != 400 {
			t.Fatalf("row %+v: events = %d, want 400", r, r.Events)
		}
		if r.Checks >= 1 && r.CheckP99 < r.CheckP50 {
			t.Fatalf("row %+v: latency quantiles inverted", r)
		}
	}
	for _, want := range []string{
		"hold-world/fixed", "hold-world/adaptive",
		"per-monitor/fixed", "per-monitor/adaptive",
	} {
		if !seen[want] {
			t.Fatalf("sweep missing cell %s (got %v)", want, seen)
		}
	}
	table := ScalingTable(rows).String()
	for _, want := range []string{"sched", "adaptive", "check p99"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestScalingConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunScaling(ScalingConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunScaling(ScalingConfig{
		Monitors: []int{0}, OpsPerMonitor: 10, ProcsPerMonitor: 1,
	}); err == nil {
		t.Fatal("zero monitor count accepted")
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
