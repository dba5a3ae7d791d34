package monitor

import (
	"errors"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/proc"
)

func coordSpec() Spec {
	return Spec{
		Name:        "buf",
		Kind:        CommunicationCoordinator,
		Conditions:  []string{"notFull", "notEmpty"},
		Procedures:  []string{"Send", "Receive"},
		Rmax:        2,
		SendProc:    "Send",
		ReceiveProc: "Receive",
	}
}

func managerSpec() Spec {
	return Spec{
		Name:       "rw",
		Kind:       OperationManager,
		Conditions: []string{"ok"},
		Procedures: []string{"Op"},
	}
}

func newTestMonitor(t *testing.T, spec Spec, opts ...Option) (*Monitor, *history.DB) {
	t.Helper()
	db := history.New(history.WithFullTrace())
	m, err := New(spec, append([]Option{WithRecorder(db)}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m, db
}

// enterSync spawns a process that enters, runs body inside the monitor,
// and exits.
func runInside(r *proc.Runtime, m *Monitor, name, procName string, body func(p *proc.P)) *proc.P {
	return r.Spawn(name, func(p *proc.P) {
		if err := m.Enter(p, procName); err != nil {
			return
		}
		if body != nil {
			body(p)
		}
		_ = m.Exit(p, procName)
	})
}

func waitCond(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestKindString(t *testing.T) {
	t.Parallel()
	cases := map[Kind]string{
		CommunicationCoordinator: "communication-coordinator",
		ResourceAllocator:        "resource-access-right-allocator",
		OperationManager:         "resource-operation-manager",
		Kind(9):                  "Kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if Kind(0).Valid() || Kind(4).Valid() || !ResourceAllocator.Valid() {
		t.Fatal("Valid() wrong")
	}
}

func TestSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Spec)
		ok   bool
	}{
		{"valid coordinator", func(s *Spec) {}, true},
		{"empty name", func(s *Spec) { s.Name = "" }, false},
		{"bad kind", func(s *Spec) { s.Kind = Kind(9) }, false},
		{"empty condition", func(s *Spec) { s.Conditions = []string{""} }, false},
		{"dup condition", func(s *Spec) { s.Conditions = []string{"c", "c"} }, false},
		{"coordinator without Rmax", func(s *Spec) { s.Rmax = 0 }, false},
		{"coordinator without send proc", func(s *Spec) { s.SendProc = "" }, false},
		{"send==receive", func(s *Spec) { s.ReceiveProc = s.SendProc }, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := coordSpec()
			tc.mut(&s)
			_, err := s.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("Validate() = nil, want error")
				}
				if !errors.Is(err, ErrSpec) {
					t.Fatalf("error %v does not wrap ErrSpec", err)
				}
			}
		})
	}
}

func TestSpecAllocatorNeedsCallOrder(t *testing.T) {
	t.Parallel()
	s := Spec{Name: "a", Kind: ResourceAllocator}
	if _, err := s.Validate(); err == nil {
		t.Fatal("allocator without CallOrder accepted")
	}
	s.CallOrder = "path Acquire ; Release end"
	p, err := s.Validate()
	if err != nil || p == nil {
		t.Fatalf("Validate = %v, path %v", err, p)
	}
}

func TestSpecCallOrderUndeclaredProcedure(t *testing.T) {
	t.Parallel()
	s := Spec{
		Name: "a", Kind: ResourceAllocator,
		Procedures: []string{"Acquire"},
		CallOrder:  "path Acquire ; Release end",
	}
	if _, err := s.Validate(); err == nil {
		t.Fatal("call order mentioning undeclared procedure accepted")
	}
}

func TestSpecBadCallOrderSyntax(t *testing.T) {
	t.Parallel()
	s := Spec{Name: "a", Kind: ResourceAllocator, CallOrder: "path ; end"}
	if _, err := s.Validate(); err == nil {
		t.Fatal("syntactically invalid call order accepted")
	}
}

func TestMutualExclusionUnderContention(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()
	var mu sync.Mutex
	insideNow, maxInside, total := 0, 0, 0
	const n = 16
	for i := 0; i < n; i++ {
		runInside(r, m, "worker", "Op", func(*proc.P) {
			mu.Lock()
			insideNow++
			if insideNow > maxInside {
				maxInside = insideNow
			}
			total++
			mu.Unlock()
			mu.Lock()
			insideNow--
			mu.Unlock()
		})
	}
	r.Join()
	if maxInside != 1 {
		t.Fatalf("max simultaneous occupancy = %d, want 1", maxInside)
	}
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
	if m.InsideCount() != 0 || m.EntryLen() != 0 {
		t.Fatalf("monitor not empty after run: inside=%d eq=%d", m.InsideCount(), m.EntryLen())
	}
}

func TestEnterRecordsFlagOneWhenFree(t *testing.T) {
	t.Parallel()
	m, db := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()
	runInside(r, m, "solo", "Op", nil)
	r.Join()
	trace := db.Full()
	if len(trace) != 2 {
		t.Fatalf("trace = %v, want Enter + Signal-Exit", trace)
	}
	if trace[0].Type != event.Enter || trace[0].Flag != event.Completed {
		t.Fatalf("first event = %v, want Enter flag 1", trace[0])
	}
	if trace[1].Type != event.SignalExit || trace[1].Cond != "" {
		t.Fatalf("second event = %v, want bare Signal-Exit", trace[1])
	}
}

func TestEnterBlocksAndRecordsFlagZero(t *testing.T) {
	t.Parallel()
	m, db := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()

	release := make(chan struct{})
	first := r.Spawn("holder", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			t.Errorf("holder Enter: %v", err)
			return
		}
		<-release
		_ = m.Exit(p, "Op")
	})
	waitCond(t, "holder inside", func() bool { return m.InsideCount() == 1 })

	second := runInside(r, m, "waiter", "Op", nil)
	waitCond(t, "waiter queued", func() bool { return m.EntryLen() == 1 })
	if second.Status() != proc.Parked {
		t.Fatalf("second status = %v, want parked", second.Status())
	}
	close(release)
	r.Join()
	_ = first

	trace := db.Full()
	// holder Enter(1), waiter Enter(0), holder Signal-Exit, waiter Signal-Exit
	if len(trace) != 4 {
		t.Fatalf("trace length = %d, want 4: %v", len(trace), trace)
	}
	if trace[1].Type != event.Enter || trace[1].Flag != event.Blocked {
		t.Fatalf("second event = %v, want blocked Enter", trace[1])
	}
	// The blocked waiter's resume must emit no new event (§3.3.1).
	enters := 0
	for _, e := range trace {
		if e.Type == event.Enter {
			enters++
		}
	}
	if enters != 2 {
		t.Fatalf("saw %d Enter events, want 2 (no resume events)", enters)
	}
}

func TestWaitHandsOffToEntryQueue(t *testing.T) {
	t.Parallel()
	m, db := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()

	r.Spawn("waiter", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		if err := m.Wait(p, "Op", "ok"); err != nil {
			return
		}
		_ = m.Exit(p, "Op")
	})
	// Only spawn the signaler once the waiter is on the condition queue,
	// so the interleaving is deterministic.
	waitCond(t, "waiter on cond queue", func() bool { return m.CondLen("ok") == 1 })

	r.Spawn("signaler", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		_ = m.SignalExit(p, "Op", "ok")
	})
	r.Join()

	trace := db.Full()
	// waiter Enter(1); waiter Wait; signaler Enter(1); signaler
	// Signal-Exit(ok,1); waiter resumes (no event); waiter Signal-Exit.
	if len(trace) != 5 {
		t.Fatalf("trace = %v, want 5 events", trace)
	}
	if trace[1].Type != event.Wait || trace[1].Cond != "ok" {
		t.Fatalf("second event = %v, want Wait(ok)", trace[1])
	}
	se := trace[3]
	if se.Type != event.SignalExit || se.Flag != event.Completed || se.Cond != "ok" {
		t.Fatalf("fourth event = %v, want Signal-Exit(ok) flag 1", se)
	}
	if m.InsideCount() != 0 || m.CondLen("ok") != 0 {
		t.Fatal("monitor not drained")
	}
}

func TestSignalExitWithEmptyCondQueuePassesToEQ(t *testing.T) {
	t.Parallel()
	m, db := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()

	hold := make(chan struct{})
	r.Spawn("first", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = m.SignalExit(p, "Op", "ok") // nobody waits on ok
	})
	waitCond(t, "first inside", func() bool { return m.InsideCount() == 1 })
	runInside(r, m, "second", "Op", nil)
	waitCond(t, "second queued", func() bool { return m.EntryLen() == 1 })
	close(hold)
	r.Join()

	for _, e := range db.Full() {
		if e.Type == event.SignalExit && e.Cond == "ok" && e.Flag != event.Blocked {
			t.Fatalf("Signal-Exit on empty cond queue has flag %d, want 0", e.Flag)
		}
	}
}

func TestWaitUnknownCondition(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()
	var gotErr error
	r.Spawn("p", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		gotErr = m.Wait(p, "Op", "nonesuch")
		_ = m.Exit(p, "Op")
	})
	r.Join()
	if !errors.Is(gotErr, ErrUnknownCond) {
		t.Fatalf("Wait on unknown cond = %v, want ErrUnknownCond", gotErr)
	}
}

func TestSignalExitUnknownCondition(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()
	var gotErr error
	r.Spawn("p", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		gotErr = m.SignalExit(p, "Op", "nonesuch")
		_ = m.Exit(p, "Op")
	})
	r.Join()
	if !errors.Is(gotErr, ErrUnknownCond) {
		t.Fatalf("SignalExit on unknown cond = %v, want ErrUnknownCond", gotErr)
	}
}

func TestAbortedWhileQueuedReturnsErrAborted(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()

	hold := make(chan struct{})
	r.Spawn("holder", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = m.Exit(p, "Op")
	})
	waitCond(t, "holder inside", func() bool { return m.InsideCount() == 1 })

	var enterErr error
	errCh := make(chan struct{})
	r.Spawn("victim", func(p *proc.P) {
		enterErr = m.Enter(p, "Op")
		close(errCh)
	})
	waitCond(t, "victim queued", func() bool { return m.EntryLen() == 1 })
	r.AbortAll()
	<-errCh
	if !errors.Is(enterErr, ErrAborted) {
		t.Fatalf("aborted Enter = %v, want ErrAborted", enterErr)
	}
	if m.EntryLen() != 0 {
		t.Fatal("aborted process left a stale entry-queue record")
	}
	close(hold)
	r.Join()
}

func TestCoordinatorResourceAccounting(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, coordSpec())
	r := proc.NewRuntime()
	if m.Resources() != 2 {
		t.Fatalf("initial R# = %d, want Rmax=2", m.Resources())
	}
	runInside(r, m, "p1", "Send", nil)
	r.Join()
	if m.Resources() != 1 {
		t.Fatalf("R# after one Send = %d, want 1", m.Resources())
	}
	r2 := proc.NewRuntime()
	runInside(r2, m, "c1", "Receive", nil)
	r2.Join()
	if m.Resources() != 2 {
		t.Fatalf("R# after Receive = %d, want 2", m.Resources())
	}
}

func TestSnapshotReflectsQueues(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()

	inCh := make(chan struct{})
	r.Spawn("waiter", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		close(inCh)
		if err := m.Wait(p, "Op", "ok"); err != nil {
			return
		}
		_ = m.Exit(p, "Op")
	})
	<-inCh
	waitCond(t, "waiter on cond queue", func() bool { return m.CondLen("ok") == 1 })

	hold := make(chan struct{})
	r.Spawn("holder", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = m.SignalExit(p, "Op", "ok")
	})
	waitCond(t, "holder inside", func() bool { return m.InsideCount() == 1 })
	runInside(r, m, "queued", "Op", nil)
	waitCond(t, "queued on EQ", func() bool { return m.EntryLen() == 1 })

	m.Freeze()
	snap := m.Snapshot()
	m.Thaw()

	check := func(when string) {
		t.Helper()
		if got := snap.CQPids("ok"); len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s: snapshot CQ[ok] = %v, want [1]", when, got)
		}
		if got := snap.EQPids(); len(got) != 1 || got[0] != 3 {
			t.Fatalf("%s: snapshot EQ = %v, want [3]", when, got)
		}
		if got := snap.RunningPids(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("%s: snapshot Running = %v, want [2]", when, got)
		}
	}
	check("at capture")
	close(hold)
	r.Join()
	// Every queue has changed since: the snapshot shares no memory with
	// the monitor (the detector keeps it without a Clone).
	if m.CondLen("ok") != 0 || m.EntryLen() != 0 || m.InsideCount() != 0 {
		t.Fatalf("after the run: CQ[ok] %d, EQ %d, inside %d; want all 0",
			m.CondLen("ok"), m.EntryLen(), m.InsideCount())
	}
	check("after the queues changed")
}

func TestFreezeBlocksPrimitives(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()

	m.Freeze()
	started := make(chan struct{})
	entered := make(chan struct{})
	r.Spawn("p", func(p *proc.P) {
		close(started)
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		close(entered)
		_ = m.Exit(p, "Op")
	})
	<-started
	select {
	case <-entered:
		t.Fatal("Enter completed while frozen")
	case <-time.After(20 * time.Millisecond):
	}
	m.Thaw()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Enter did not complete after Thaw")
	}
	r.Join()
}

func TestNilRecorderRunsBare(t *testing.T) {
	t.Parallel()
	m, err := New(managerSpec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r := proc.NewRuntime()
	runInside(r, m, "p", "Op", nil)
	r.Join()
	// Nothing to assert beyond "does not crash": bare mode is the
	// no-extension baseline.
	if m.InsideCount() != 0 {
		t.Fatal("monitor not empty")
	}
}

func TestFIFOEntryOrder(t *testing.T) {
	t.Parallel()
	m, _ := newTestMonitor(t, managerSpec())
	r := proc.NewRuntime()

	var order []int64
	var mu sync.Mutex
	hold := make(chan struct{})
	r.Spawn("holder", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = m.Exit(p, "Op")
	})
	waitCond(t, "holder inside", func() bool { return m.InsideCount() == 1 })

	for i := 0; i < 5; i++ {
		runInside(r, m, "w", "Op", func(p *proc.P) {
			mu.Lock()
			order = append(order, p.ID())
			mu.Unlock()
		})
		want := i + 1
		waitCond(t, "waiter queued", func() bool { return m.EntryLen() == want })
	}
	close(hold)
	r.Join()
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("entry order not FIFO: %v", order)
		}
	}
}
