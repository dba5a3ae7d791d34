package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func row(eps float64, p99 time.Duration, extra map[string]any) map[string]any {
	r := map[string]any{
		"monitors": 4, "checkpoint": "hold-world", "scheduler": "fixed", "batch": 0,
		"events_per_sec": eps, "checkpoint_p99_ns": p99.Nanoseconds(),
	}
	for k, v := range extra {
		r[k] = v
	}
	return r
}

func normalized(t *testing.T, rows []map[string]any) []map[string]any {
	t.Helper()
	out, err := normalize(rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareArtefactsPassesWithinTolerance(t *testing.T) {
	t.Parallel()
	base := normalized(t, []map[string]any{row(1000, 10*time.Millisecond, nil)})
	fresh := normalized(t, []map[string]any{row(900, 11*time.Millisecond, nil)})
	regs, err := compareArtefacts(base, fresh, 0.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regs=%v err=%v, want clean pass", regs, err)
	}
}

func TestCompareArtefactsFlagsThroughputRegression(t *testing.T) {
	t.Parallel()
	base := normalized(t, []map[string]any{row(1000, 10*time.Millisecond, nil)})
	fresh := normalized(t, []map[string]any{row(500, 10*time.Millisecond, nil)})
	regs, err := compareArtefacts(base, fresh, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "events/sec") {
		t.Fatalf("regs = %v, want one events/sec regression", regs)
	}
}

func TestCompareArtefactsFlagsLatencyRegression(t *testing.T) {
	t.Parallel()
	base := normalized(t, []map[string]any{row(1000, 10*time.Millisecond, nil)})
	fresh := normalized(t, []map[string]any{row(1000, 40*time.Millisecond, nil)})
	regs, err := compareArtefacts(base, fresh, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "p99") {
		t.Fatalf("regs = %v, want one p99 regression", regs)
	}
}

func TestCompareArtefactsLatencyFloorAbsorbsNoise(t *testing.T) {
	t.Parallel()
	// 100µs → 300µs is +200% relative but far below the 10ms floor:
	// micro-latency jitter must not fail the gate.
	base := normalized(t, []map[string]any{row(1000, 100*time.Microsecond, nil)})
	fresh := normalized(t, []map[string]any{row(1000, 300*time.Microsecond, nil)})
	regs, err := compareArtefacts(base, fresh, 0.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regs=%v err=%v, want floor to absorb sub-ms jitter", regs, err)
	}
}

func TestCompareArtefactsCollectorRowsGetWidenedBand(t *testing.T) {
	t.Parallel()
	// Collector (E8) throughput gates at twice the tolerance: −40%
	// passes where an ordinary sweep row would fail, −60% still fails.
	mk := func(eps float64) []map[string]any {
		return normalized(t, []map[string]any{
			{"bench": "collector", "mode": "fleet", "producers": 1, "events_per_sec": eps},
		})
	}
	regs, err := compareArtefacts(mk(1000), mk(600), 0.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regs=%v err=%v, want −40%% absorbed by the widened band", regs, err)
	}
	regs, err = compareArtefacts(mk(1000), mk(400), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "events/sec") || !strings.Contains(regs[0], "50%") {
		t.Fatalf("regs = %v, want one events/sec regression at the ±50%% band", regs)
	}
}

func TestCompareArtefactsAllocCeiling(t *testing.T) {
	t.Parallel()
	rpRow := func(eps, allocs float64) map[string]any {
		return map[string]any{
			"bench": "recordpath", "mode": "batch", "monitors": 8,
			"producers": 16, "batch": 256,
			"events_per_sec": eps, "allocs_per_event": allocs,
		}
	}
	// Steady-state noise — thousandths of an allocation per event —
	// stays under the absolute floor even when relatively large.
	base := normalized(t, []map[string]any{rpRow(1e7, 0.001)})
	fresh := normalized(t, []map[string]any{rpRow(1e7, 0.02)})
	regs, err := compareArtefacts(base, fresh, 0.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regs=%v err=%v, want floor to absorb alloc noise", regs, err)
	}
	// A per-event allocation creeping back in (≈1 alloc/event) fails.
	fresh = normalized(t, []map[string]any{rpRow(1e7, 1.0)})
	regs, err = compareArtefacts(base, fresh, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/event") {
		t.Fatalf("regs = %v, want one allocs/event regression", regs)
	}
	// A zero baseline still gates via the floor alone.
	base = normalized(t, []map[string]any{rpRow(1e7, 0)})
	regs, err = compareArtefacts(base, fresh, 0.25)
	if err != nil || len(regs) != 1 {
		t.Fatalf("regs=%v err=%v, want zero baseline to gate via the floor", regs, err)
	}
}

func TestCompareArtefactsHeapCeiling(t *testing.T) {
	t.Parallel()
	soakRow := func(peak float64) map[string]any {
		return map[string]any{
			"bench": "soak", "backlog": 131072, "peak_heap_bytes": peak,
		}
	}
	// Sampler jitter of a few MiB stays under the absolute floor even
	// when relatively large.
	base := normalized(t, []map[string]any{soakRow(2 << 20)})
	fresh := normalized(t, []map[string]any{soakRow(6 << 20)})
	regs, err := compareArtefacts(base, fresh, 0.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regs=%v err=%v, want floor to absorb heap-sampler jitter", regs, err)
	}
	// Whole-backlog buffering (tens of MiB over baseline) fails.
	fresh = normalized(t, []map[string]any{soakRow(40 << 20)})
	regs, err = compareArtefacts(base, fresh, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "peak heap") {
		t.Fatalf("regs = %v, want one peak-heap regression", regs)
	}
}

func TestCompareArtefactsKeyMatching(t *testing.T) {
	t.Parallel()
	// Different scheduler cells must never be compared to each other.
	base := normalized(t, []map[string]any{
		row(1000, 10*time.Millisecond, map[string]any{"scheduler": "fixed"}),
		row(5000, time.Millisecond, map[string]any{"scheduler": "adaptive"}),
	})
	fresh := normalized(t, []map[string]any{
		row(990, 10*time.Millisecond, map[string]any{"scheduler": "fixed"}),
	})
	regs, err := compareArtefacts(base, fresh, 0.25)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regs=%v err=%v, want pass (adaptive baseline row ignored)", regs, err)
	}
	// No overlap at all is an error, not a silent pass.
	orphan := normalized(t, []map[string]any{
		row(10, time.Second, map[string]any{"monitors": 999}),
	})
	if _, err := compareArtefacts(base, orphan, 0.25); err == nil {
		t.Fatal("zero matched rows accepted")
	}
}

func TestGateEndToEndPassAndArtefactSchema(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	sweep := []string{
		"-monitors", "1,2",
		"-ops", "400",
		"-procs", "1",
		"-intervals", "2ms",
		"-adaptive",
		"-batch", "32",
	}
	code, _, errOut := runTool(t, append(sweep, "-json", basePath)...)
	if code != 0 {
		t.Fatalf("baseline sweep: exit %d, err=%q", code, errOut)
	}
	var art struct {
		Rows []map[string]any `json:"rows"`
	}
	blob, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	// 2 monitor counts × 2 checkpoint modes × 2 scheduler modes.
	if len(art.Rows) != 8 {
		t.Fatalf("adaptive sweep produced %d rows, want 8", len(art.Rows))
	}
	for i, r := range art.Rows {
		for _, field := range []string{"scheduler", "batch", "checkpoint_p50_ns", "checkpoint_p99_ns", "events_per_sec"} {
			if _, ok := r[field]; !ok {
				t.Fatalf("row %d missing %q: %v", i, field, r)
			}
		}
	}

	// The artefact gated against itself passes: this pins the gate's
	// mechanics, not the hardware (regression verdicts are pinned on
	// synthetic rows above).
	selfGate(t, basePath)
}

func TestGateRejectsMissingOrMismatchedBaseline(t *testing.T) {
	t.Parallel()
	code, _, errOut := runTool(t,
		"-monitors", "1", "-ops", "100", "-procs", "1",
		"-baseline", filepath.Join(t.TempDir(), "nope.json"))
	if code != 1 || !strings.Contains(errOut, "read baseline") {
		t.Fatalf("code=%d err=%q, want read failure", code, errOut)
	}

	// An E2 baseline cannot gate an E4 sweep.
	dir := t.TempDir()
	e2 := filepath.Join(dir, "e2.json")
	if err := os.WriteFile(e2, []byte(`{"kind":"E2-overhead","rows":[]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runTool(t,
		"-monitors", "1", "-ops", "100", "-procs", "1",
		"-baseline", e2)
	if code != 1 || !strings.Contains(errOut, "not comparable") {
		t.Fatalf("code=%d err=%q, want kind mismatch", code, errOut)
	}
}
