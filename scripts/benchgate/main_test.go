package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runs returns one result per value, each carrying metric = value.
func runs(metric string, vs ...float64) []result {
	rs := make([]result, len(vs))
	for i, v := range vs {
		rs[i] = result{Correct: true, Attempted: 100}
		rs[i].Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{metric: {Value: v}}
	}
	return rs
}

// verdictOf is the verdict compare gives metric m on one workload.
func verdictOf(t *testing.T, m metricSpec, base, head []result) string {
	t.Helper()
	for _, r := range compare("w", []metricSpec{m}, base, head) {
		if r.metric == m.Name {
			return r.verdict
		}
	}
	t.Fatalf("no row for %s", m.Name)
	return ""
}

func TestVerdictAtTheBound(t *testing.T) {
	lower := metricSpec{Name: "overhead_ratio", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		m    metricSpec
		head float64
		want string
	}{
		{lower, 124, "ok"},
		{lower, 126, "WORSE"},
		{lower, 50, "ok"},
		{higher, 76, "ok"},
		{higher, 74, "WORSE"},
		{higher, 150, "ok"},
	} {
		base := runs(c.m.Name, 100, 100, 100)
		head := runs(c.m.Name, c.head, c.head, c.head)
		if got := verdictOf(t, c.m, base, head); got != c.want {
			t.Errorf("%s (%s) 100 -> %v: verdict %s, want %s", c.m.Name, c.m.Better, c.head, got, c.want)
		}
	}
}

func TestMissingMetricFails(t *testing.T) {
	m := metricSpec{Name: "overhead_ratio", Better: "lower", Bound: 0.25}
	present := runs(m.Name, 1, 1, 1)
	absent := runs("other", 1, 1, 1)
	partly := runs(m.Name, 1, 1, 1)
	partly[1] = absent[1]
	for name, sides := range map[string][2][]result{
		"head":       {present, absent},
		"base":       {absent, present},
		"one run":    {present, partly},
		"no runs":    {present, nil},
		"both sides": {absent, absent},
	} {
		if got := verdictOf(t, m, sides[0], sides[1]); got != "MISSING" {
			t.Errorf("missing on %s: verdict %s, want MISSING", name, got)
		}
	}
	var out strings.Builder
	if code := report(&out, compare("w", []metricSpec{m}, present, absent)); code != 1 {
		t.Fatalf("report exit %d on a missing metric, want 1\n%s", code, out.String())
	}
}

func TestHigherFailedShareFails(t *testing.T) {
	base := runs("x", 1, 1)
	head := runs("x", 1, 1)
	share := func() string {
		rows := compare("w", nil, base, head)
		if len(rows) != 1 || rows[0].metric != "failed_share" {
			t.Fatalf("rows without metrics = %+v, want the failed_share row", rows)
		}
		return rows[0].verdict
	}
	if got := share(); got != "ok" {
		t.Fatalf("equal failed share: verdict %s, want ok", got)
	}
	head[1].Failed = 1
	if got := share(); got != "WORSE" {
		t.Fatalf("higher failed share: verdict %s, want WORSE", got)
	}
	base[0].Failed = 2
	if got := share(); got != "ok" {
		t.Fatalf("lower failed share: verdict %s, want ok", got)
	}
}

func TestMedian(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Fatalf("median of an even count = %v, want 2.5", got)
	}
	if vs[0] != 4 {
		t.Fatalf("median sorted its input: %v", vs)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median of an odd count = %v, want 3", got)
	}
}

func TestOneSidedEntriesNotGated(t *testing.T) {
	spec := func(workloads, metrics []string) benchSpec {
		var s benchSpec
		for _, w := range workloads {
			s.Workloads = append(s.Workloads, workload{w})
		}
		for _, m := range metrics {
			s.EndToEnd = append(s.EndToEnd, metricSpec{Name: m, Better: "lower", Bound: 0.25})
		}
		return s
	}
	base := spec([]string{"a", "b"}, []string{"x", "y"})
	head := spec([]string{"c", "a"}, []string{"z", "x"})
	workloads, metrics, notGated := plan(base, head)
	if len(workloads) != 1 || workloads[0] != "a" {
		t.Fatalf("gated workloads = %v, want [a]", workloads)
	}
	if len(metrics) != 1 || metrics[0].Name != "x" {
		t.Fatalf("gated metrics = %v, want [x]", metrics)
	}
	want := []string{"workload b (base only)", "workload c (head only)", "metric y (base only)", "metric z (head only)"}
	if strings.Join(notGated, "|") != strings.Join(want, "|") {
		t.Fatalf("not gated = %q, want %q", notGated, want)
	}
}

// fakeCheckout writes a checkout whose benchmark is a shell script: it
// logs its arguments to log and prints a result line with the given
// overhead_ratio.
func fakeCheckout(t *testing.T, dir, log, ratio string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	spec := `{"command": ["sh", "fake.sh"], "run_seconds": 3,
		"workloads": [{"name": "w1"}],
		"end_to_end": [{"name": "overhead_ratio", "better": "lower", "bound": 0.25}]}`
	script := "echo \"$(basename \"$PWD\") $*\" >> " + log + "\n" +
		"echo 'readable report'\n" +
		`echo '{"correct":true,"attempted":10,"failed":0,"metrics":{"overhead_ratio":{"value":` + ratio + `,"unit":"x"}}}'` + "\n"
	for name, body := range map[string]string{"BENCHMARK.json": spec, "fake.sh": script} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunAlternatesPairs(t *testing.T) {
	for _, c := range []struct {
		name, headRatio string
		code            int
	}{
		{"same", "2", 0},
		{"worse", "3", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			log := filepath.Join(dir, "log")
			fakeCheckout(t, filepath.Join(dir, "base"), log, "2")
			fakeCheckout(t, filepath.Join(dir, "head"), log, c.headRatio)
			var out, errOut strings.Builder
			code := run([]string{filepath.Join(dir, "base"), filepath.Join(dir, "head")}, &out, &errOut)
			if code != c.code {
				t.Fatalf("exit %d, want %d\n%s%s", code, c.code, out.String(), errOut.String())
			}
			data, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := 1; i <= pairs; i++ {
				first, second := "base", "head"
				if i%2 == 1 {
					first, second = second, first
				}
				args := " --workload w1 --seed " + strconv.Itoa(i) + " --seconds 3 --trace 0"
				want = append(want, first+args, second+args)
			}
			if got := strings.TrimSpace(string(data)); got != strings.Join(want, "\n") {
				t.Fatalf("runs:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
			}
		})
	}
}

func TestRunRejectsArguments(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"."}, &out, &errOut); code != 2 {
		t.Fatalf("one checkout: exit %d, want 2", code)
	}
	if code := run([]string{t.TempDir(), t.TempDir()}, &out, &errOut); code != 2 {
		t.Fatalf("no BENCHMARK.json: exit %d, want 2", code)
	}
	bad := t.TempDir()
	spec := `{"command": ["true"], "run_seconds": 1, "end_to_end": [{"name": "x", "better": "Lower"}]}`
	if err := os.WriteFile(filepath.Join(bad, "BENCHMARK.json"), []byte(spec), 0o666); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad, bad}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "want lower or higher") {
		t.Fatalf("unknown better: exit %d, want 2\n%s", code, errOut.String())
	}
}
