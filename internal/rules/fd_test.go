package rules

import (
	"slices"
	"strings"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/state"
)

var t0 = time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)

func coordCfg() Config {
	return Config{
		Spec: monitor.Spec{
			Name: "buf", Kind: monitor.CommunicationCoordinator,
			Conditions:  []string{"notFull", "notEmpty"},
			Rmax:        2,
			SendProc:    "Send",
			ReceiveProc: "Receive",
		},
	}
}

func managerCfg() Config {
	return Config{
		Spec: monitor.Spec{
			Name: "m", Kind: monitor.OperationManager,
			Conditions: []string{"ok"},
		},
	}
}

func allocCfg() Config {
	return Config{
		Spec: monitor.Spec{
			Name: "alloc", Kind: monitor.ResourceAllocator,
			CallOrder: "path Acquire ; Release end",
		},
	}
}

// tr builds a trace, assigning sequence numbers and timestamps spaced
// one millisecond apart.
func tr(events ...event.Event) event.Seq {
	out := make(event.Seq, len(events))
	for i, e := range events {
		e.Seq = int64(i + 1)
		e.Time = t0.Add(time.Duration(i) * time.Millisecond)
		if e.Monitor == "" {
			e.Monitor = "m"
		}
		out[i] = e
	}
	return out
}

func enter(pid int64, proc string, flag int) event.Event {
	return event.Event{Type: event.Enter, Pid: pid, Proc: proc, Flag: flag}
}

func wait(pid int64, proc, cond string) event.Event {
	return event.Event{Type: event.Wait, Pid: pid, Proc: proc, Cond: cond}
}

func sigexit(pid int64, proc, cond string, flag int) event.Event {
	return event.Event{Type: event.SignalExit, Pid: pid, Proc: proc, Cond: cond, Flag: flag}
}

func TestCleanTraceNoViolations(t *testing.T) {
	t.Parallel()
	// P1 enters, waits; P2 enters, signals; P1 exits.
	trace := tr(
		enter(1, "Op", 1),
		wait(1, "Op", "ok"),
		enter(2, "Op", 1),
		sigexit(2, "Op", "ok", 1),
		sigexit(1, "Op", "", 0),
	)
	if vs := Check(trace, managerCfg()); len(vs) != 0 {
		t.Fatalf("clean trace produced violations: %v", vs)
	}
}

func TestCleanContendedTrace(t *testing.T) {
	t.Parallel()
	// P1 enters; P2 blocks; P1 exits handing off to P2; P2 exits.
	trace := tr(
		enter(1, "Op", 1),
		enter(2, "Op", 0),
		sigexit(1, "Op", "", 0),
		sigexit(2, "Op", "", 0),
	)
	if vs := Check(trace, managerCfg()); len(vs) != 0 {
		t.Fatalf("clean contended trace produced violations: %v", vs)
	}
}

func TestFD1aMutexViolation(t *testing.T) {
	t.Parallel()
	trace := tr(
		enter(1, "Op", 1),
		enter(2, "Op", 1), // granted while P1 inside
	)
	vs := Check(trace, managerCfg())
	if !HasRule(vs, FD1a) {
		t.Fatalf("violations = %v, want FD-1a", vs)
	}
	if !HasFault(vs, faults.EnterMutexViolation) {
		t.Fatalf("violations = %v, want EnterMutexViolation classification", vs)
	}
}

func TestFD1cSignalWithoutWaiter(t *testing.T) {
	t.Parallel()
	trace := tr(
		enter(1, "Op", 1),
		sigexit(1, "Op", "ok", 1), // claims to resume from an empty queue
	)
	vs := Check(trace, managerCfg())
	if !HasRule(vs, FD1c) {
		t.Fatalf("violations = %v, want FD-1c", vs)
	}
}

func TestFD1dOperationWithoutEnter(t *testing.T) {
	t.Parallel()
	for _, trace := range []event.Seq{
		tr(wait(1, "Op", "ok")),
		tr(sigexit(1, "Op", "", 0)),
	} {
		vs := Check(trace, managerCfg())
		if !HasRule(vs, FD1d) {
			t.Fatalf("violations = %v, want FD-1d", vs)
		}
		if !HasFault(vs, faults.EnterNotObserved) {
			t.Fatalf("violations = %v, want EnterNotObserved", vs)
		}
	}
}

func TestFD2NonterminationInsideMonitor(t *testing.T) {
	t.Parallel()
	cfg := managerCfg()
	cfg.Tmax = time.Second
	cfg.End = t0.Add(time.Minute)
	trace := tr(enter(1, "Op", 1)) // never exits
	vs := Check(trace, cfg)
	if !HasRule(vs, FD2) || !HasFault(vs, faults.InternalTermination) {
		t.Fatalf("violations = %v, want FD-2/InternalTermination", vs)
	}
}

func TestFD2NotFiredWithinBudget(t *testing.T) {
	t.Parallel()
	cfg := managerCfg()
	cfg.Tmax = time.Hour
	cfg.End = t0.Add(time.Minute)
	trace := tr(enter(1, "Op", 1))
	if vs := Check(trace, cfg); len(vs) != 0 {
		t.Fatalf("violations = %v, want none within Tmax", vs)
	}
}

func TestFD3DelayedOnFreeMonitor(t *testing.T) {
	t.Parallel()
	trace := tr(enter(1, "Op", 0)) // blocked although free
	vs := Check(trace, managerCfg())
	if !HasRule(vs, FD3) || !HasFault(vs, faults.EnterNoResponse) {
		t.Fatalf("violations = %v, want FD-3/EnterNoResponse", vs)
	}
}

func TestFD4EntryQueueStarvation(t *testing.T) {
	t.Parallel()
	cfg := managerCfg()
	cfg.Tio = time.Second
	cfg.End = t0.Add(time.Minute)
	trace := tr(
		enter(1, "Op", 1),
		enter(2, "Op", 0), // stuck on EQ past Tio
	)
	vs := Check(trace, cfg)
	if !HasRule(vs, FD4) {
		t.Fatalf("violations = %v, want FD-4", vs)
	}
}

func TestFD4CondQueueAbandoned(t *testing.T) {
	t.Parallel()
	cfg := managerCfg()
	cfg.Tmax = time.Second
	cfg.End = t0.Add(time.Minute)
	trace := tr(
		enter(1, "Op", 1),
		wait(1, "Op", "ok"), // nobody ever signals
	)
	vs := Check(trace, cfg)
	if !HasRule(vs, FD4) || !HasFault(vs, faults.SignalNoResume) {
		t.Fatalf("violations = %v, want FD-4/SignalNoResume", vs)
	}
}

func TestFD5aResumeWithoutSignal(t *testing.T) {
	t.Parallel()
	// P1 waits on ok, then acts again without any signal: the WaitNoBlock
	// fault's signature.
	trace := tr(
		enter(1, "Op", 1),
		wait(1, "Op", "ok"),
		sigexit(1, "Op", "", 0),
	)
	vs := Check(trace, managerCfg())
	if !HasRule(vs, FD5a) || !HasFault(vs, faults.WaitNoBlock) {
		t.Fatalf("violations = %v, want FD-5a/WaitNoBlock", vs)
	}
}

func TestFD5bResumeWithoutHandoff(t *testing.T) {
	t.Parallel()
	// P2 blocks on entry then acts while still queued.
	trace := tr(
		enter(1, "Op", 1),
		enter(2, "Op", 0),
		wait(2, "Op", "ok"),
	)
	vs := Check(trace, managerCfg())
	if !HasRule(vs, FD5b) {
		t.Fatalf("violations = %v, want FD-5b", vs)
	}
}

func TestFD6aSendOverflow(t *testing.T) {
	t.Parallel()
	// Three sends complete with Rmax=2 and no receive: s > r+Rmax.
	trace := tr(
		enter(1, "Send", 1), sigexit(1, "Send", "notEmpty", 0),
		enter(2, "Send", 1), sigexit(2, "Send", "notEmpty", 0),
		enter(3, "Send", 1), sigexit(3, "Send", "notEmpty", 0),
	)
	for i := range trace {
		trace[i].Monitor = "buf"
	}
	vs := Check(trace, coordCfg())
	if !HasRule(vs, FD6a) || !HasFault(vs, faults.SendOverflow) {
		t.Fatalf("violations = %v, want FD-6a/SendOverflow", vs)
	}
}

func TestFD6aReceiveOvertake(t *testing.T) {
	t.Parallel()
	trace := tr(
		enter(1, "Receive", 1), sigexit(1, "Receive", "notFull", 0),
	)
	vs := Check(trace, coordCfg())
	if !HasRule(vs, FD6a) || !HasFault(vs, faults.ReceiveOvertake) {
		t.Fatalf("violations = %v, want FD-6a/ReceiveOvertake", vs)
	}
}

func TestFD6bSendSpuriousDelay(t *testing.T) {
	t.Parallel()
	// Send waits although the buffer is empty (R#=Rmax).
	trace := tr(
		enter(1, "Send", 1),
		wait(1, "Send", "notFull"),
	)
	vs := Check(trace, coordCfg())
	if !HasRule(vs, FD6b) || !HasFault(vs, faults.SendSpuriousDelay) {
		t.Fatalf("violations = %v, want FD-6b/SendSpuriousDelay", vs)
	}
}

func TestFD6bLegitSendDelay(t *testing.T) {
	t.Parallel()
	// Fill the buffer (two sends), then a third send legitimately waits.
	trace := tr(
		enter(1, "Send", 1), sigexit(1, "Send", "notEmpty", 0),
		enter(2, "Send", 1), sigexit(2, "Send", "notEmpty", 0),
		enter(3, "Send", 1), wait(3, "Send", "notFull"),
	)
	vs := Check(trace, coordCfg())
	if HasRule(vs, FD6b) {
		t.Fatalf("legitimate full-buffer delay flagged: %v", vs)
	}
}

func TestFD6cReceiveSpuriousDelay(t *testing.T) {
	t.Parallel()
	// One item in the buffer, yet Receive waits.
	trace := tr(
		enter(1, "Send", 1), sigexit(1, "Send", "notEmpty", 0),
		enter(2, "Receive", 1), wait(2, "Receive", "notEmpty"),
	)
	vs := Check(trace, coordCfg())
	if !HasRule(vs, FD6c) || !HasFault(vs, faults.ReceiveSpuriousDelay) {
		t.Fatalf("violations = %v, want FD-6c/ReceiveSpuriousDelay", vs)
	}
}

func TestFD7aSelfDeadlock(t *testing.T) {
	t.Parallel()
	trace := tr(
		enter(1, "Acquire", 1), sigexit(1, "Acquire", "", 0),
		enter(1, "Acquire", 1), // re-acquire while holding
	)
	for i := range trace {
		trace[i].Monitor = "alloc"
	}
	vs := Check(trace, allocCfg())
	if !HasRule(vs, FD7a) || !HasFault(vs, faults.SelfDeadlock) {
		t.Fatalf("violations = %v, want FD-7a/SelfDeadlock", vs)
	}
}

func TestFD7bReleaseWithoutAcquire(t *testing.T) {
	t.Parallel()
	trace := tr(enter(1, "Release", 1))
	vs := Check(trace, allocCfg())
	if !HasRule(vs, FD7b) || !HasFault(vs, faults.ReleaseWithoutAcquire) {
		t.Fatalf("violations = %v, want FD-7b/ReleaseWithoutAcquire", vs)
	}
}

func TestFD7cResourceNeverReleased(t *testing.T) {
	t.Parallel()
	cfg := allocCfg()
	cfg.Tlimit = time.Second
	cfg.End = t0.Add(time.Minute)
	trace := tr(
		enter(1, "Acquire", 1), sigexit(1, "Acquire", "", 0),
	)
	vs := Check(trace, cfg)
	if !HasRule(vs, FD7c) || !HasFault(vs, faults.ResourceNeverReleased) {
		t.Fatalf("violations = %v, want FD-7c/ResourceNeverReleased", vs)
	}
}

func TestFD7CleanAcquireReleaseCycles(t *testing.T) {
	t.Parallel()
	cfg := allocCfg()
	cfg.Tlimit = time.Second
	cfg.End = t0.Add(time.Minute)
	trace := tr(
		enter(1, "Acquire", 1), sigexit(1, "Acquire", "", 0),
		enter(2, "Acquire", 1), sigexit(2, "Acquire", "", 0),
		enter(1, "Release", 1), sigexit(1, "Release", "", 0),
		enter(2, "Release", 1), sigexit(2, "Release", "", 0),
	)
	if vs := Check(trace, cfg); len(vs) != 0 {
		t.Fatalf("clean allocator trace produced violations: %v", vs)
	}
}

func TestFinalSnapshotMismatchEQ(t *testing.T) {
	t.Parallel()
	cfg := managerCfg()
	// Trace says P2 is on the entry queue; the actual monitor lost it.
	trace := tr(
		enter(1, "Op", 1),
		enter(2, "Op", 0),
	)
	final := &state.Snapshot{
		Monitor: "m",
		At:      t0.Add(time.Second),
		CQ:      map[string][]state.QueueEntry{"ok": nil},
		Running: []state.RunningEntry{{Pid: 1}},
		// EQ empty: P2 vanished.
	}
	cfg.Final = final
	vs := Check(trace, cfg)
	if !HasRule(vs, FD4) {
		t.Fatalf("violations = %v, want FD-4 for the lost process", vs)
	}
}

func TestFinalSnapshotMismatchRunning(t *testing.T) {
	t.Parallel()
	cfg := managerCfg()
	// Trace says the monitor is free; actually P1 still occupies it.
	trace := tr(
		enter(1, "Op", 1),
		sigexit(1, "Op", "", 0),
	)
	cfg.Final = &state.Snapshot{
		Monitor: "m",
		At:      t0.Add(time.Second),
		CQ:      map[string][]state.QueueEntry{"ok": nil},
		Running: []state.RunningEntry{{Pid: 1}},
	}
	vs := Check(trace, cfg)
	if !HasRule(vs, FD1a) || !HasFault(vs, faults.SignalMonitorNotReleased) {
		t.Fatalf("violations = %v, want FD-1a/SignalMonitorNotReleased", vs)
	}
}

func TestFinalSnapshotAgreementIsSilent(t *testing.T) {
	t.Parallel()
	cfg := managerCfg()
	trace := tr(
		enter(1, "Op", 1),
		enter(2, "Op", 0),
	)
	cfg.Final = &state.Snapshot{
		Monitor: "m",
		At:      t0.Add(time.Second),
		EQ:      []state.QueueEntry{{Pid: 2, Proc: "Op"}},
		CQ:      map[string][]state.QueueEntry{"ok": nil},
		Running: []state.RunningEntry{{Pid: 1}},
	}
	if vs := Check(trace, cfg); len(vs) != 0 {
		t.Fatalf("agreeing snapshot produced violations: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	t.Parallel()
	v := Violation{Rule: FD1a, Monitor: "m", Pid: 3, Message: "boom"}
	if got := v.String(); got != "FD-1a[m] P3: boom" {
		t.Fatalf("String = %q", got)
	}
	v.Pid = 0
	if got := v.String(); got != "FD-1a[m]: boom" {
		t.Fatalf("String = %q", got)
	}
}

func TestGroupingHelpers(t *testing.T) {
	t.Parallel()
	vs := []Violation{
		{Rule: FD1a, Fault: faults.EnterMutexViolation},
		{Rule: FD1a},
		{Rule: FD4},
	}
	g := ByRule(vs)
	if len(g[FD1a]) != 2 || len(g[FD4]) != 1 {
		t.Fatalf("ByRule = %v", g)
	}
	if !HasRule(vs, FD4) || HasRule(vs, FD7a) {
		t.Fatal("HasRule wrong")
	}
	if !HasFault(vs, faults.EnterMutexViolation) || HasFault(vs, faults.SelfDeadlock) {
		t.Fatal("HasFault wrong")
	}
}

// TestCheckReportsInStableOrder: the end-of-trace checks walk the
// checker's maps (processes inside, condition queues, call-order
// matchers), and the same trace must give the same violations in the
// same order on every call — conditions in declaration order, pids
// ascending — as the checklists report theirs.
func TestCheckReportsInStableOrder(t *testing.T) {
	t.Parallel()
	mgr := managerCfg()
	mgr.Spec.Conditions = []string{"c", "a", "b"} // declaration order, not by name
	mgr.Tmax = time.Second
	mgr.End = t0.Add(time.Minute)
	mgr.Final = &state.Snapshot{Monitor: "m", At: mgr.End}
	alloc := allocCfg()
	alloc.Tlimit = time.Second
	alloc.End = t0.Add(time.Minute)
	for _, c := range []struct {
		name  string
		cfg   Config
		trace event.Seq
		want  []string
	}{
		{
			// Three waiters past Tmax, one per condition, and three
			// processes inside (two of them let in by a mutex fault).
			name: "inside and condition queues",
			cfg:  mgr,
			trace: tr(
				enter(1, "Op", 1), wait(1, "Op", "b"),
				enter(2, "Op", 1), wait(2, "Op", "a"),
				enter(3, "Op", 1), wait(3, "Op", "c"),
				enter(6, "Op", 1), enter(4, "Op", 1), enter(5, "Op", 1),
			),
			want: []string{
				"FD-1a[m] P4: entry granted while 1 process(es) inside",
				"FD-1a[m] P5: entry granted while 2 process(es) inside",
				"FD-2[m] P4: P4 inside the monitor for 59.993s ≥ Tmax",
				"FD-2[m] P5: P5 inside the monitor for 59.992s ≥ Tmax",
				"FD-2[m] P6: P6 inside the monitor for 59.994s ≥ Tmax",
				`FD-4[m] P3: P3 waiting on "c" for 59.995s ≥ Tmax`,
				`FD-4[m] P2: P2 waiting on "a" for 59.997s ≥ Tmax`,
				`FD-4[m] P1: P1 waiting on "b" for 59.999s ≥ Tmax`,
				"FD-4[m]: reconstructed CQ[a] = [2] but actual = []",
				"FD-4[m]: reconstructed CQ[b] = [1] but actual = []",
				"FD-4[m]: reconstructed CQ[c] = [3] but actual = []",
				"FD-1a[m]: reconstructed Running = [4 5 6] but actual = []",
			},
		},
		{
			// Three acquisitions never released.
			name: "call-order matchers",
			cfg:  alloc,
			trace: tr(
				enter(3, "Acquire", 1), sigexit(3, "Acquire", "", 0),
				enter(1, "Acquire", 1), sigexit(1, "Acquire", "", 0),
				enter(2, "Acquire", 1), sigexit(2, "Acquire", "", 0),
			),
			want: []string{
				"FD-7c[alloc] P1: P1 holds an unreleased obligation for 59.998s ≥ Tlimit",
				"FD-7c[alloc] P2: P2 holds an unreleased obligation for 59.996s ≥ Tlimit",
				"FD-7c[alloc] P3: P3 holds an unreleased obligation for 1m0s ≥ Tlimit",
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			for call := 1; call <= 100; call++ {
				vs := Check(c.trace, c.cfg)
				got := make([]string, len(vs))
				for i, v := range vs {
					got[i] = v.String()
				}
				if !slices.Equal(got, c.want) {
					t.Fatalf("call %d reported\n%s\nwant\n%s", call, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
				}
			}
		})
	}
}
