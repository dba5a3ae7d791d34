package obsrules

import (
	"testing"
	"time"

	"robustmon/internal/obs"
)

func snapAt(reg *obs.Registry) obs.Snapshot { return reg.Snapshot() }

func at(sec int) time.Time {
	return time.Date(2001, 7, 1, 0, 0, sec, 0, time.UTC)
}

// TestCeilingFiresAndClears pins the basic transition contract: one
// alert on the fire edge, one on the clear edge, nothing in between.
func TestCeilingFiresAndClears(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("export_queue_depth")
	e, err := New(reg, Rule{Name: "queue", Metric: "export_queue_depth", Ceiling: 10})
	if err != nil {
		t.Fatal(err)
	}

	g.Set(5)
	if got := e.Eval(nil, at(0), 1, snapAt(reg)); len(got) != 0 {
		t.Fatalf("below ceiling fired: %v", got)
	}
	g.Set(11)
	got := e.Eval(nil, at(1), 2, snapAt(reg))
	if len(got) != 1 || !got[0].Firing {
		t.Fatalf("want one firing alert, got %v", got)
	}
	a := got[0]
	if a.Rule != "queue" || a.Metric != "export_queue_depth" || a.Value != 11 || a.Ceiling != 10 || a.Seq != 2 {
		t.Fatalf("alert fields wrong: %+v", a)
	}
	// Still breaching: no repeat alert (transition-only emission).
	g.Set(50)
	if got := e.Eval(nil, at(2), 3, snapAt(reg)); len(got) != 0 {
		t.Fatalf("re-fired while already firing: %v", got)
	}
	if e.Firing() != 1 {
		t.Fatalf("Firing() = %d, want 1", e.Firing())
	}
	g.Set(3)
	got = e.Eval(nil, at(3), 4, snapAt(reg))
	if len(got) != 1 || got[0].Firing {
		t.Fatalf("want one clear alert, got %v", got)
	}
	if e.Firing() != 0 {
		t.Fatalf("Firing() = %d after clear, want 0", e.Firing())
	}
	if v, _ := reg.Snapshot().Counter("obs_rule_fired_total"); v != 1 {
		t.Fatalf("obs_rule_fired_total = %d, want 1", v)
	}
	if v, _ := reg.Snapshot().Counter("obs_rule_cleared_total"); v != 1 {
		t.Fatalf("obs_rule_cleared_total = %d, want 1", v)
	}
}

// TestHysteresisSuppressesFlapping is the satellite's named property: a
// series oscillating across the ceiling faster than FireAfter/
// ClearAfter never fires at all, and a sustained breach fires exactly
// once after K consecutive breaching evaluations.
func TestHysteresisSuppressesFlapping(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("flappy")
	e, err := New(reg, Rule{Name: "flap", Metric: "flappy", Ceiling: 10, FireAfter: 3, ClearAfter: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Flap: breach, breach, clear — never 3 consecutive breaches.
	var all []Alert
	seq := int64(0)
	for i := 0; i < 10; i++ {
		for _, v := range []int64{20, 20, 1} {
			g.Set(v)
			seq++
			all = e.Eval(all, at(int(seq)), seq, snapAt(reg))
		}
	}
	if len(all) != 0 {
		t.Fatalf("flapping series fired: %v", all)
	}

	// Sustained breach: fires exactly once, on the 3rd consecutive hit.
	g.Set(20)
	for i := 0; i < 2; i++ {
		seq++
		if all = e.Eval(all, at(int(seq)), seq, snapAt(reg)); len(all) != 0 {
			t.Fatalf("fired after only %d breaches: %v", i+1, all)
		}
	}
	seq++
	all = e.Eval(all, at(int(seq)), seq, snapAt(reg))
	if len(all) != 1 || !all[0].Firing {
		t.Fatalf("want fire on 3rd consecutive breach, got %v", all)
	}

	// One clear evaluation is not enough to clear (ClearAfter=2) —
	// and it resets nothing permanently: a breach in between restarts
	// the clear streak.
	g.Set(1)
	seq++
	if got := e.Eval(nil, at(int(seq)), seq, snapAt(reg)); len(got) != 0 {
		t.Fatalf("cleared after one clear evaluation: %v", got)
	}
	g.Set(20)
	seq++
	_ = e.Eval(nil, at(int(seq)), seq, snapAt(reg))
	g.Set(1)
	seq++
	if got := e.Eval(nil, at(int(seq)), seq, snapAt(reg)); len(got) != 0 {
		t.Fatalf("clear streak survived an interleaved breach: %v", got)
	}
	seq++
	got := e.Eval(nil, at(int(seq)), seq, snapAt(reg))
	if len(got) != 1 || got[0].Firing {
		t.Fatalf("want clear after 2 consecutive clears, got %v", got)
	}
}

// TestRateRule pins the slope semantics: the rule watches the
// per-second delta, skips the anchorless first snapshot, and fires on
// slope while the absolute value keeps climbing.
func TestRateRule(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("export_dropped_events_total")
	e, err := New(reg, Rule{Name: "droprate", Metric: "export_dropped_events_total", Rate: true, Ceiling: 100})
	if err != nil {
		t.Fatal(err)
	}

	c.Add(1000) // huge absolute value: irrelevant to a rate rule
	if got := e.Eval(nil, at(0), 1, snapAt(reg)); len(got) != 0 {
		t.Fatalf("rate rule fired on first snapshot (no anchor): %v", got)
	}
	c.Add(50) // +50 over 1s = 50/s, under the 100/s ceiling
	if got := e.Eval(nil, at(1), 2, snapAt(reg)); len(got) != 0 {
		t.Fatalf("fired under the rate ceiling: %v", got)
	}
	c.Add(500) // +500 over 1s = 500/s
	got := e.Eval(nil, at(2), 3, snapAt(reg))
	if len(got) != 1 || !got[0].Firing || got[0].Value != 500 {
		t.Fatalf("want fire at 500/s, got %v", got)
	}
	// Flat series clears it.
	if got := e.Eval(nil, at(3), 4, snapAt(reg)); len(got) != 1 || got[0].Firing {
		t.Fatalf("want clear on flat series, got %v", got)
	}
}

// TestQuantileRule evaluates a histogram tail against a ceiling.
func TestQuantileRule(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("detect_check_ns")
	e, err := New(reg, Rule{Name: "p99", Metric: "detect_check_ns", Quantile: 0.99, Ceiling: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if got := e.Eval(nil, at(0), 1, snapAt(reg)); len(got) != 0 {
		t.Fatalf("fast tail fired: %v", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1 << 24)
	}
	got := e.Eval(nil, at(1), 2, snapAt(reg))
	if len(got) != 1 || !got[0].Firing {
		t.Fatalf("want fire on slow p99, got %v", got)
	}
}

// TestMissingMetricDoesNotFire: an idle pipeline that never registered
// the watched series must evaluate as not breaching (and a firing rule
// whose series vanishes clears).
func TestMissingMetricDoesNotFire(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := New(reg, Rule{Name: "ghost", Metric: "never_registered", Ceiling: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Eval(nil, at(0), 1, snapAt(reg)); len(got) != 0 {
		t.Fatalf("missing metric fired: %v", got)
	}
}

func TestAddValidation(t *testing.T) {
	e, err := New(nil, Rule{Name: "a", Metric: "m", Ceiling: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Rule{
		{Metric: "m"},
		{Name: "b"},
		{Name: "a", Metric: "m"},
		{Name: "c", Metric: "m", Rate: true, Quantile: 0.5},
	} {
		if err := e.Add(bad); err == nil {
			t.Fatalf("Add(%+v) accepted", bad)
		}
	}
	// Add keeps existing state: arm "a" to firing, add a rule, confirm
	// "a" is still firing.
	reg := obs.NewRegistry()
	reg.Gauge("m").Set(5)
	_ = e.Eval(nil, at(0), 1, reg.Snapshot())
	if e.Firing() != 1 {
		t.Fatal("rule a did not fire")
	}
	if err := e.Add(Rule{Name: "late", Metric: "other", Ceiling: 1}); err != nil {
		t.Fatal(err)
	}
	if e.Firing() != 1 {
		t.Fatal("Add disturbed existing hysteresis state")
	}
}

// TestEvalNoFireAllocs pins the quiet-path claim: evaluating a rule
// set that stays below its ceilings allocates nothing.
func TestEvalNoFireAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(3)
	h := reg.Histogram("hist")
	h.Observe(100)
	e, err := New(reg,
		Rule{Name: "r1", Metric: "c", Ceiling: 1e9},
		Rule{Name: "r2", Metric: "c", Rate: true, Ceiling: 1e9},
		Rule{Name: "r3", Metric: "g", Ceiling: 1e9},
		Rule{Name: "r4", Metric: "hist", Quantile: 0.99, Ceiling: 1e9},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	buf := make([]Alert, 0, 8)
	sec := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sec++
		buf = e.Eval(buf[:0], at(sec), int64(sec), s)
	})
	if allocs != 0 {
		t.Fatalf("no-fire Eval allocates %.1f/op, want 0", allocs)
	}
}
