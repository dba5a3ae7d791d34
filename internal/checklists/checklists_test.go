package checklists

import (
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/rules"
	"robustmon/internal/state"
)

var t0 = time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)

func managerSpec() monitor.Spec {
	return monitor.Spec{
		Name: "m", Kind: monitor.OperationManager,
		Conditions: []string{"ok"},
	}
}

func coordSpec() monitor.Spec {
	return monitor.Spec{
		Name: "buf", Kind: monitor.CommunicationCoordinator,
		Conditions:  []string{"notFull", "notEmpty"},
		Rmax:        2,
		SendProc:    "Send",
		ReceiveProc: "Receive",
	}
}

func allocSpec() monitor.Spec {
	return monitor.Spec{
		Name: "alloc", Kind: monitor.ResourceAllocator,
		CallOrder:   "path Acquire ; Release end",
		AcquireProc: "Acquire",
		ReleaseProc: "Release",
	}
}

func emptySnap(spec monitor.Spec) state.Snapshot {
	cq := make(map[string][]state.QueueEntry)
	for _, c := range spec.Conditions {
		cq[c] = nil
	}
	return state.Snapshot{Monitor: spec.Name, At: t0, CQ: cq, Resources: spec.Rmax}
}

func ev(seq int64, typ event.Type, pid int64, proc, cond string, flag int) *event.Event {
	return &event.Event{
		Seq: seq, Monitor: "m", Type: typ, Pid: pid, Proc: proc, Cond: cond, Flag: flag,
		Time: t0.Add(time.Duration(seq) * time.Millisecond),
	}
}

func apply(l *Lists, events ...*event.Event) {
	for _, e := range events {
		l.Apply(e)
	}
}

func TestCleanReplayNoViolations(t *testing.T) {
	t.Parallel()
	l := FromSnapshot(managerSpec(), emptySnap(managerSpec()), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Op", "", 1),
		ev(2, event.Wait, 1, "Op", "ok", 0),
		ev(3, event.Enter, 2, "Op", "", 1),
		ev(4, event.SignalExit, 2, "Op", "ok", 1),
		ev(5, event.SignalExit, 1, "Op", "", 0),
	)
	if vs := l.Violations(); len(vs) != 0 {
		t.Fatalf("clean replay produced %v", vs)
	}
	if len(l.Running) != 0 || len(l.EnterQ) != 0 || len(l.WaitCond["ok"]) != 0 {
		t.Fatal("lists not drained after clean replay")
	}
}

func TestCleanContendedReplay(t *testing.T) {
	t.Parallel()
	l := FromSnapshot(managerSpec(), emptySnap(managerSpec()), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Op", "", 1),
		ev(2, event.Enter, 2, "Op", "", 0),
		ev(3, event.SignalExit, 1, "Op", "", 0), // hands off to P2
		ev(4, event.SignalExit, 2, "Op", "", 0),
	)
	if vs := l.Violations(); len(vs) != 0 {
		t.Fatalf("clean contended replay produced %v", vs)
	}
}

func TestSeedingFromSnapshot(t *testing.T) {
	t.Parallel()
	spec := managerSpec()
	snap := emptySnap(spec)
	snap.EQ = []state.QueueEntry{{Pid: 4, Proc: "Op", Since: t0}}
	snap.CQ["ok"] = []state.QueueEntry{{Pid: 5, Proc: "Op", Since: t0}}
	snap.Running = []state.RunningEntry{{Pid: 6, Since: t0}}
	l := FromSnapshot(spec, snap, 0, 0)
	if len(l.EnterQ) != 1 || l.EnterQ[0].Pid != 4 {
		t.Fatalf("EnterQ seed = %v", l.EnterQ)
	}
	if len(l.WaitCond["ok"]) != 1 || l.WaitCond["ok"][0].Pid != 5 {
		t.Fatalf("WaitCond seed = %v", l.WaitCond)
	}
	if len(l.Running) != 1 || l.Running[0].Pid != 6 {
		t.Fatalf("Running seed = %v", l.Running)
	}
	// P6 exits handing to P4 — the seeded state must replay cleanly.
	apply(l, ev(1, event.SignalExit, 6, "Op", "", 0))
	if vs := l.Violations(); len(vs) != 0 {
		t.Fatalf("seeded replay produced %v", vs)
	}
	if len(l.Running) != 1 || l.Running[0].Pid != 4 {
		t.Fatalf("Running after handoff = %v, want [4]", l.Running)
	}
}

func TestST3cEnterGrantedWhileOccupied(t *testing.T) {
	t.Parallel()
	l := FromSnapshot(managerSpec(), emptySnap(managerSpec()), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Op", "", 1),
		ev(2, event.Enter, 2, "Op", "", 1),
	)
	vs := l.Violations()
	if !rules.HasRule(vs, rules.ST3c) || !rules.HasRule(vs, rules.ST3a) {
		t.Fatalf("violations = %v, want ST-3c and ST-3a", vs)
	}
	if !rules.HasFault(vs, faults.EnterMutexViolation) {
		t.Fatalf("violations = %v, want EnterMutexViolation", vs)
	}
}

func TestST3dEnterBlockedWhileFree(t *testing.T) {
	t.Parallel()
	l := FromSnapshot(managerSpec(), emptySnap(managerSpec()), 0, 0)
	apply(l, ev(1, event.Enter, 1, "Op", "", 0))
	vs := l.Violations()
	if !rules.HasRule(vs, rules.ST3d) || !rules.HasFault(vs, faults.EnterNoResponse) {
		t.Fatalf("violations = %v, want ST-3d/EnterNoResponse", vs)
	}
}

func TestST3bWaitByUnknownProcess(t *testing.T) {
	t.Parallel()
	l := FromSnapshot(managerSpec(), emptySnap(managerSpec()), 0, 0)
	apply(l, ev(1, event.Wait, 9, "Op", "ok", 0))
	vs := l.Violations()
	if !rules.HasRule(vs, rules.ST3b) || !rules.HasFault(vs, faults.EnterNotObserved) {
		t.Fatalf("violations = %v, want ST-3b/EnterNotObserved", vs)
	}
}

func TestST4EventWhileListed(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		fault  faults.Kind
		events []*event.Event
	}{
		{faults.WaitNoBlock, []*event.Event{
			ev(1, event.Enter, 1, "Op", "", 1),
			ev(2, event.Wait, 1, "Op", "ok", 0),     // P1 now on Wait-Cond-List
			ev(3, event.SignalExit, 1, "Op", "", 0), // …but acts anyway
		}},
		{faults.EnterLostProcess, []*event.Event{
			ev(1, event.Enter, 1, "Op", "", 1),
			ev(2, event.Enter, 2, "Op", "", 0),  // P2 now on Enter-0-List
			ev(3, event.Wait, 2, "Op", "ok", 0), // …but acts anyway
		}},
	} {
		l := FromSnapshot(managerSpec(), emptySnap(managerSpec()), 0, 0)
		apply(l, tc.events...)
		vs := l.Violations()
		if !rules.HasRule(vs, rules.ST4) || !rules.HasFault(vs, tc.fault) {
			t.Errorf("violations = %v, want ST-4/%v", vs, tc.fault)
		}
	}
}

func TestST2SignalOnEmptyCondList(t *testing.T) {
	t.Parallel()
	l := FromSnapshot(managerSpec(), emptySnap(managerSpec()), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Op", "", 1),
		ev(2, event.SignalExit, 1, "Op", "ok", 1), // flag 1 with nobody waiting
	)
	if !rules.HasRule(l.Violations(), rules.ST2) {
		t.Fatalf("violations = %v, want ST-2", l.Violations())
	}
}

func TestST7aSendOverflowCumulative(t *testing.T) {
	t.Parallel()
	spec := coordSpec()
	// Segment 1: two sends fill the buffer (clean).
	l1 := FromSnapshot(spec, emptySnap(spec), 0, 0)
	apply(l1,
		ev(1, event.Enter, 1, "Send", "", 1),
		ev(2, event.SignalExit, 1, "Send", "notEmpty", 0),
		ev(3, event.Enter, 2, "Send", "", 1),
		ev(4, event.SignalExit, 2, "Send", "notEmpty", 0),
	)
	if vs := l1.Violations(); len(vs) != 0 {
		t.Fatalf("segment 1 violations: %v", vs)
	}
	// Segment 2 carries the totals: a third send overflows.
	snap2 := emptySnap(spec)
	snap2.Resources = 0
	l2 := FromSnapshot(spec, snap2, l1.Sends, l1.Recvs)
	apply(l2,
		ev(5, event.Enter, 3, "Send", "", 1),
		ev(6, event.SignalExit, 3, "Send", "notEmpty", 0),
	)
	vs := l2.Violations()
	if !rules.HasRule(vs, rules.ST7a) || !rules.HasFault(vs, faults.SendOverflow) {
		t.Fatalf("violations = %v, want ST-7a/SendOverflow", vs)
	}
}

func TestST7aReceiveOvertake(t *testing.T) {
	t.Parallel()
	spec := coordSpec()
	l := FromSnapshot(spec, emptySnap(spec), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Receive", "", 1),
		ev(2, event.SignalExit, 1, "Receive", "notFull", 0),
	)
	vs := l.Violations()
	if !rules.HasRule(vs, rules.ST7a) || !rules.HasFault(vs, faults.ReceiveOvertake) {
		t.Fatalf("violations = %v, want ST-7a/ReceiveOvertake", vs)
	}
}

func TestST7cSendWaitsWithFreeSlots(t *testing.T) {
	t.Parallel()
	spec := coordSpec()
	l := FromSnapshot(spec, emptySnap(spec), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Send", "", 1),
		ev(2, event.Wait, 1, "Send", "notFull", 0),
	)
	vs := l.Violations()
	if !rules.HasRule(vs, rules.ST7c) || !rules.HasFault(vs, faults.SendSpuriousDelay) {
		t.Fatalf("violations = %v, want ST-7c/SendSpuriousDelay", vs)
	}
}

func TestST7dReceiveWaitsWithItems(t *testing.T) {
	t.Parallel()
	spec := coordSpec()
	snap := emptySnap(spec)
	snap.Resources = 1 // one item in the buffer
	l := FromSnapshot(spec, snap, 1, 0)
	apply(l,
		ev(1, event.Enter, 2, "Receive", "", 1),
		ev(2, event.Wait, 2, "Receive", "notEmpty", 0),
	)
	vs := l.Violations()
	if !rules.HasRule(vs, rules.ST7d) || !rules.HasFault(vs, faults.ReceiveSpuriousDelay) {
		t.Fatalf("violations = %v, want ST-7d/ReceiveSpuriousDelay", vs)
	}
}

func TestST7LegitimateBoundaryWaits(t *testing.T) {
	t.Parallel()
	spec := coordSpec()
	snap := emptySnap(spec)
	snap.Resources = 0 // buffer full
	l := FromSnapshot(spec, snap, 2, 0)
	apply(l,
		ev(1, event.Enter, 3, "Send", "", 1),
		ev(2, event.Wait, 3, "Send", "notFull", 0),
	)
	if vs := l.Violations(); len(vs) != 0 {
		t.Fatalf("legitimate full-buffer wait flagged: %v", vs)
	}
}

func TestCompareWithDetectsDivergence(t *testing.T) {
	t.Parallel()
	spec := managerSpec()
	l := FromSnapshot(spec, emptySnap(spec), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Op", "", 1),
		ev(2, event.Enter, 2, "Op", "", 0),
	)
	// Actual monitor lost P2 from EQ and still holds P1.
	actual := emptySnap(spec)
	actual.Running = []state.RunningEntry{{Pid: 1, Since: t0}}
	vs := l.CompareWith(actual)
	if !rules.HasRule(vs, rules.ST1) {
		t.Fatalf("violations = %v, want ST-1 for the lost EQ entry", vs)
	}
}

func TestCompareWithAgreementSilent(t *testing.T) {
	t.Parallel()
	spec := managerSpec()
	l := FromSnapshot(spec, emptySnap(spec), 0, 0)
	apply(l,
		ev(1, event.Enter, 1, "Op", "", 1),
		ev(2, event.Enter, 2, "Op", "", 0),
	)
	actual := emptySnap(spec)
	actual.EQ = []state.QueueEntry{{Pid: 2, Proc: "Op", Since: t0}}
	actual.Running = []state.RunningEntry{{Pid: 1, Since: t0}}
	if vs := l.CompareWith(actual); len(vs) != 0 {
		t.Fatalf("agreeing snapshot produced %v", vs)
	}
}

func TestCompareWithResourceMismatch(t *testing.T) {
	t.Parallel()
	spec := coordSpec()
	l := FromSnapshot(spec, emptySnap(spec), 0, 0)
	actual := emptySnap(spec)
	actual.Resources = 1 // actual R# diverged
	vs := l.CompareWith(actual)
	if !rules.HasRule(vs, rules.STrs) {
		t.Fatalf("violations = %v, want ST-RS", vs)
	}
}

func TestCheckTimers(t *testing.T) {
	t.Parallel()
	spec := managerSpec()
	snap := emptySnap(spec)
	snap.Running = []state.RunningEntry{{Pid: 1, Since: t0}}
	snap.CQ["ok"] = []state.QueueEntry{{Pid: 2, Proc: "Op", Since: t0}}
	snap.EQ = []state.QueueEntry{{Pid: 3, Proc: "Op", Since: t0}}
	l := FromSnapshot(spec, snap, 0, 0)

	now := t0.Add(time.Minute)
	vs := l.CheckTimers(now, 30*time.Second, 45*time.Second)
	if !rules.HasRule(vs, rules.ST5) || !rules.HasRule(vs, rules.ST6) {
		t.Fatalf("violations = %v, want ST-5 and ST-6", vs)
	}
	var st5Running, st5Cond bool
	for _, v := range vs {
		if v.Rule == rules.ST5 && v.Pid == 1 {
			st5Running = true
		}
		if v.Rule == rules.ST5 && v.Pid == 2 {
			st5Cond = true
		}
	}
	if !st5Running || !st5Cond {
		t.Fatalf("ST-5 must cover Running and Wait-Cond lists: %v", vs)
	}
	// Inside the budget: silence.
	if vs := l.CheckTimers(t0.Add(time.Second), 30*time.Second, 45*time.Second); len(vs) != 0 {
		t.Fatalf("timers fired early: %v", vs)
	}
	// Disabled timers: silence.
	if vs := l.CheckTimers(now, 0, 0); len(vs) != 0 {
		t.Fatalf("disabled timers fired: %v", vs)
	}
}

func TestRequestListLifecycle(t *testing.T) {
	t.Parallel()
	rl := NewRequestList(allocSpec())
	if !rl.Enabled() {
		t.Fatal("request list should be enabled")
	}
	vs := rl.Apply(ev(1, event.Enter, 1, "Acquire", "", 1))
	vs = append(vs, rl.Apply(ev(2, event.SignalExit, 1, "Acquire", "", 0))...)
	if len(vs) != 0 {
		t.Fatalf("clean acquire produced %v", vs)
	}
	if pids := rl.Pids(); len(pids) != 1 || pids[0] != 1 {
		t.Fatalf("Pids = %v, want [1]", pids)
	}
	vs = rl.Apply(ev(3, event.Enter, 1, "Release", "", 1))
	vs = append(vs, rl.Apply(ev(4, event.SignalExit, 1, "Release", "", 0))...)
	if len(vs) != 0 {
		t.Fatalf("clean release produced %v", vs)
	}
	if len(rl.Pids()) != 0 {
		t.Fatalf("Pids = %v, want empty", rl.Pids())
	}
}

func TestRequestListST8aDuplicateAcquire(t *testing.T) {
	t.Parallel()
	rl := NewRequestList(allocSpec())
	rl.Apply(ev(1, event.Enter, 1, "Acquire", "", 1))
	vs := rl.Apply(ev(2, event.Enter, 1, "Acquire", "", 1))
	if !rules.HasRule(vs, rules.ST8a) || !rules.HasFault(vs, faults.SelfDeadlock) {
		t.Fatalf("violations = %v, want ST-8a/SelfDeadlock", vs)
	}
}

func TestRequestListST8bReleaseWithoutAcquire(t *testing.T) {
	t.Parallel()
	rl := NewRequestList(allocSpec())
	vs := rl.Apply(ev(1, event.Enter, 1, "Release", "", 1))
	if !rules.HasRule(vs, rules.ST8b) || !rules.HasFault(vs, faults.ReleaseWithoutAcquire) {
		t.Fatalf("violations = %v, want ST-8b/ReleaseWithoutAcquire", vs)
	}
}

func TestRequestListST8cTlimit(t *testing.T) {
	t.Parallel()
	rl := NewRequestList(allocSpec())
	rl.Apply(ev(1, event.Enter, 1, "Acquire", "", 1))
	vs := rl.CheckTimers(t0.Add(time.Hour), time.Minute)
	if !rules.HasRule(vs, rules.ST8c) || !rules.HasFault(vs, faults.ResourceNeverReleased) {
		t.Fatalf("violations = %v, want ST-8c/ResourceNeverReleased", vs)
	}
	if vs := rl.CheckTimers(t0.Add(time.Second), time.Minute); len(vs) != 0 {
		t.Fatalf("ST-8c fired early: %v", vs)
	}
}

func TestRequestListDisabledWithoutProcNames(t *testing.T) {
	t.Parallel()
	spec := allocSpec()
	spec.AcquireProc, spec.ReleaseProc = "", ""
	rl := NewRequestList(spec)
	if rl.Enabled() {
		t.Fatal("request list should be disabled")
	}
	if vs := rl.Apply(ev(1, event.Enter, 1, "Release", "", 1)); vs != nil {
		t.Fatalf("disabled list produced %v", vs)
	}
	if vs := rl.CheckTimers(t0.Add(time.Hour), time.Minute); vs != nil {
		t.Fatalf("disabled timers produced %v", vs)
	}
}

func TestRequestListOtherMonitorEventsIgnored(t *testing.T) {
	t.Parallel()
	rl := NewRequestList(allocSpec())
	if vs := rl.Apply(ev(1, event.Enter, 1, "Status", "", 1)); len(vs) != 0 {
		t.Fatalf("unrelated procedure produced %v", vs)
	}
	if len(rl.Pids()) != 0 {
		t.Fatal("unrelated procedure grew the list")
	}
}
