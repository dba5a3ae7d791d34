package detect

import (
	"sync"
	"testing"

	"robustmon/internal/clock"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

func allocSpec() monitor.Spec {
	return monitor.Spec{
		Name: "alloc", Kind: monitor.ResourceAllocator,
		Conditions:  []string{"free"},
		Procedures:  []string{"Acquire", "Release"},
		CallOrder:   "path Acquire ; Release end",
		AcquireProc: "Acquire",
		ReleaseProc: "Release",
	}
}

func newAllocFixture(t *testing.T) (*monitor.Monitor, *RealTime, *proc.Runtime) {
	t.Helper()
	db := history.New()
	rt, err := NewRealTime(db, []monitor.Spec{allocSpec()}, nil)
	if err != nil {
		t.Fatalf("NewRealTime: %v", err)
	}
	m, err := monitor.New(allocSpec(),
		monitor.WithRecorder(rt),
		monitor.WithClock(clock.NewVirtual(epoch)),
	)
	if err != nil {
		t.Fatalf("monitor.New: %v", err)
	}
	return m, rt, proc.NewRuntime()
}

// callProc runs one full monitor procedure call (enter + exit).
func callProc(m *monitor.Monitor, p *proc.P, procName string) {
	if err := m.Enter(p, procName); err != nil {
		return
	}
	_ = m.Exit(p, procName)
}

func TestRealTimeCleanCycles(t *testing.T) {
	t.Parallel()
	m, rt, r := newAllocFixture(t)
	r.Spawn("user", func(p *proc.P) {
		for i := 0; i < 3; i++ {
			callProc(m, p, "Acquire")
			callProc(m, p, "Release")
		}
	})
	r.Join()
	if vs := rt.Violations(); len(vs) != 0 {
		t.Fatalf("clean cycles produced %v", vs)
	}
}

func TestRealTimeReleaseWithoutAcquire(t *testing.T) {
	t.Parallel()
	m, rt, r := newAllocFixture(t)
	r.Spawn("buggy", func(p *proc.P) {
		callProc(m, p, "Release") // fault III.a
	})
	r.Join()
	vs := rt.Violations()
	if !rules.HasRule(vs, rules.FD7b) || !rules.HasFault(vs, faults.ReleaseWithoutAcquire) {
		t.Fatalf("violations = %v, want FD-7b/ReleaseWithoutAcquire", vs)
	}
	if vs[0].Phase != "realtime" {
		t.Fatalf("phase = %q, want realtime", vs[0].Phase)
	}
}

// TestRealTimeMessageBoundedAcrossCycles pins that a violation message
// names only the calls since the process last completed a cycle, not
// its whole life: the FD-7b message after 10,000 clean cycles equals
// the one after a single cycle.
func TestRealTimeMessageBoundedAcrossCycles(t *testing.T) {
	t.Parallel()
	releaseAfter := func(cycles int) string {
		m, rt, r := newAllocFixture(t)
		r.Spawn("user", func(p *proc.P) {
			for i := 0; i < cycles; i++ {
				callProc(m, p, "Acquire")
				callProc(m, p, "Release")
			}
			callProc(m, p, "Release") // fault III.a
		})
		r.Join()
		vs := rt.Violations()
		if len(vs) != 1 || vs[0].Rule != rules.FD7b {
			t.Fatalf("after %d cycles: violations = %v, want one FD-7b", cycles, vs)
		}
		return vs[0].Message
	}
	if got, want := releaseAfter(10_000), releaseAfter(1); got != want {
		t.Fatalf("FD-7b message after 10,000 cycles is %d bytes, want the single-cycle message %q", len(got), want)
	}
}

func TestRealTimeSelfDeadlock(t *testing.T) {
	t.Parallel()
	m, rt, r := newAllocFixture(t)
	r.Spawn("buggy", func(p *proc.P) {
		callProc(m, p, "Acquire")
		callProc(m, p, "Acquire") // fault III.c
	})
	r.Join()
	vs := rt.Violations()
	if !rules.HasRule(vs, rules.FD7a) || !rules.HasFault(vs, faults.SelfDeadlock) {
		t.Fatalf("violations = %v, want FD-7a/SelfDeadlock", vs)
	}
}

func TestRealTimePerProcessIsolation(t *testing.T) {
	t.Parallel()
	m, rt, r := newAllocFixture(t)
	// Two processes interleave their cycles; per-process order is fine
	// even though the global sequence alternates.
	var wg sync.WaitGroup
	wg.Add(2)
	gate := make(chan struct{})
	r.Spawn("a", func(p *proc.P) {
		defer wg.Done()
		callProc(m, p, "Acquire")
		<-gate
		callProc(m, p, "Release")
	})
	r.Spawn("b", func(p *proc.P) {
		defer wg.Done()
		callProc(m, p, "Acquire")
		close(gate)
		callProc(m, p, "Release")
	})
	r.Join()
	wg.Wait()
	if vs := rt.Violations(); len(vs) != 0 {
		t.Fatalf("interleaved clean cycles produced %v", vs)
	}
}

func TestRealTimeIgnoresNonAllocatorMonitors(t *testing.T) {
	t.Parallel()
	db := history.New()
	rt, err := NewRealTime(db, []monitor.Spec{
		{Name: "mgr", Kind: monitor.OperationManager, Conditions: []string{"ok"}},
	}, nil)
	if err != nil {
		t.Fatalf("NewRealTime: %v", err)
	}
	m, err := monitor.New(monitor.Spec{
		Name: "mgr", Kind: monitor.OperationManager, Conditions: []string{"ok"},
	}, monitor.WithRecorder(rt), monitor.WithClock(clock.NewVirtual(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	r.Spawn("p", func(p *proc.P) {
		callProc(m, p, "Release") // no order declared: not checked
	})
	r.Join()
	if vs := rt.Violations(); len(vs) != 0 {
		t.Fatalf("non-allocator events checked: %v", vs)
	}
}

func TestRealTimeCallbackFires(t *testing.T) {
	t.Parallel()
	db := history.New()
	var mu sync.Mutex
	var got []rules.Violation
	rt, err := NewRealTime(db, []monitor.Spec{allocSpec()}, func(v rules.Violation) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(allocSpec(),
		monitor.WithRecorder(rt), monitor.WithClock(clock.NewVirtual(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	r.Spawn("buggy", func(p *proc.P) { callProc(m, p, "Release") })
	r.Join()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("callback fired %d times, want 1", len(got))
	}
}

func TestRealTimeRejectsBadSpec(t *testing.T) {
	t.Parallel()
	bad := allocSpec()
	bad.CallOrder = "path ; end"
	if _, err := NewRealTime(history.New(), []monitor.Spec{bad}, nil); err == nil {
		t.Fatal("NewRealTime accepted a broken call-order declaration")
	}
}

func TestRealTimeForwardsEvents(t *testing.T) {
	t.Parallel()
	db := history.New(history.WithFullTrace())
	rt, err := NewRealTime(db, []monitor.Spec{allocSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := monitor.New(allocSpec(),
		monitor.WithRecorder(rt), monitor.WithClock(clock.NewVirtual(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	r := proc.NewRuntime()
	r.Spawn("user", func(p *proc.P) {
		callProc(m, p, "Acquire")
		callProc(m, p, "Release")
	})
	r.Join()
	if got := len(db.Full()); got != 4 {
		t.Fatalf("db got %d events, want 4 (real-time tee must forward)", got)
	}
	// Sequence numbers must come from the wrapped DB.
	full := db.Full()
	for i, e := range full {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}
