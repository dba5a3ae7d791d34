package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestArchVerifies(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t, "-arch")
	if code != 0 {
		t.Fatalf("exit = %d, err=%q", code, errOut)
	}
	for _, want := range []string{"Figure 1", "data gathering", "architecture verified"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTinySweepProducesTable(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t,
		"-intervals", "2ms,4ms",
		"-ops", "400",
		"-procs", "2",
		"-repeats", "1",
		"-workloads", "manager",
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	for _, want := range []string{"checking interval", "2ms", "4ms", "manager ratio", "shape check"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1ReportsThroughput(t *testing.T) {
	t.Parallel()
	code, out, errOut := runTool(t,
		"-intervals", "2ms",
		"-ops", "200",
		"-procs", "1",
		"-repeats", "1",
		"-workloads", "manager",
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "events/sec") {
		t.Errorf("detail table missing events/sec column:\n%s", out)
	}
}

func TestBadIntervalRejected(t *testing.T) {
	t.Parallel()
	code, _, errOut := runTool(t, "-intervals", "soon")
	if code != 2 || !strings.Contains(errOut, "bad interval") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	t.Parallel()
	code, _, errOut := runTool(t,
		"-workloads", "blockchain",
		"-intervals", "2ms", "-ops", "100", "-procs", "1", "-repeats", "1")
	if code != 1 || !strings.Contains(errOut, "unknown workload") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestBadFlagRejected(t *testing.T) {
	t.Parallel()
	code, _, _ := runTool(t, "-nonsense")
	if code != 2 {
		t.Fatalf("code=%d, want 2", code)
	}
}

func TestJSONArtefactOverheadSweep(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bench.json")
	code, _, errOut := runTool(t,
		"-intervals", "2ms",
		"-ops", "200",
		"-procs", "2",
		"-repeats", "1",
		"-workloads", "manager",
		"-json", path,
	)
	if code != 0 {
		t.Fatalf("exit = %d, err=%q", code, errOut)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artefact not written: %v", err)
	}
	var art struct {
		Kind string           `json:"kind"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatalf("artefact is not valid JSON: %v", err)
	}
	if art.Kind != "E2-overhead" || len(art.Rows) != 1 {
		t.Fatalf("artefact = kind %q with %d rows, want E2-overhead with 1", art.Kind, len(art.Rows))
	}
}
