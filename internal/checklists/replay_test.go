package checklists

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/rules"
	"robustmon/internal/state"
)

// scanST4 is ST-Rule 4 as a scan of the lists, the form checkST4 had
// before the pid index: every entry the event's process holds on
// Enter-0-List or a Wait-Cond-List is one violation. It walks the
// Wait-Cond-Lists in declaration order, declared conditions first and
// the others by name. The index must report exactly what it reports.
func scanST4(l *Lists, e *event.Event) []rules.Violation {
	var out []rules.Violation
	add := func(fault faults.Kind, msg string) {
		out = append(out, rules.Violation{
			Rule: rules.ST4, Monitor: l.spec.Name, Pid: e.Pid, Proc: e.Proc, Cond: e.Cond,
			Seq: e.Seq, At: e.Time, Fault: fault, Message: msg,
		})
	}
	for _, w := range l.EnterQ {
		if w.Pid == e.Pid {
			add(faults.EnterLostProcess,
				fmt.Sprintf("P%d emits %s while still on Enter-0-List", e.Pid, e.Type))
		}
	}
	var extra []string
	for cond := range l.WaitCond {
		if !slices.Contains(l.spec.Conditions, cond) {
			extra = append(extra, cond)
		}
	}
	slices.Sort(extra)
	for _, cond := range append(slices.Clone(l.spec.Conditions), extra...) {
		for _, w := range l.WaitCond[cond] {
			if w.Pid == e.Pid {
				add(faults.WaitNoBlock,
					fmt.Sprintf("P%d emits %s while still on Wait-Cond-List[%s]", e.Pid, e.Type, cond))
			}
		}
	}
	return out
}

// verdict is what the differential test compares of a violation.
type verdict struct {
	rule    rules.ID
	pid     int64
	seq     int64
	fault   faults.Kind
	message string
}

func verdicts(vs []rules.Violation) []verdict {
	out := make([]verdict, 0, len(vs))
	for _, v := range vs {
		out = append(out, verdict{v.Rule, v.Pid, v.Seq, v.Fault, v.Message})
	}
	return out
}

func onlyST4(vs []rules.Violation) []rules.Violation {
	var out []rules.Violation
	for _, v := range vs {
		if v.Rule == rules.ST4 {
			out = append(out, v)
		}
	}
	return out
}

// listedByScan counts each pid's entries on Enter-0-List and the
// Wait-Cond-Lists, the value the pid index must hold.
func listedByScan(l *Lists) map[int64]int {
	out := make(map[int64]int)
	for _, w := range l.EnterQ {
		out[w.Pid]++
	}
	for _, q := range l.WaitCond {
		for _, w := range q {
			out[w.Pid]++
		}
	}
	return out
}

const randomPids = 6

// randomSnapshot seeds up to three processes on Enter-0-List, up to two
// on each Wait-Cond-List (now and then on a condition the spec does not
// declare) and up to two inside the monitor.
func randomSnapshot(rng *rand.Rand, spec monitor.Spec) state.Snapshot {
	snap := emptySnap(spec)
	pid := func() int64 { return 1 + rng.Int63n(randomPids) }
	for i := rng.Intn(4); i > 0; i-- {
		snap.EQ = append(snap.EQ, state.QueueEntry{Pid: pid(), Proc: spec.SendProc, Since: t0})
	}
	conds := slices.Clone(spec.Conditions)
	if rng.Intn(4) == 0 {
		conds = append(conds, "undeclared")
	}
	for _, c := range conds {
		for i := rng.Intn(3); i > 0; i-- {
			snap.CQ[c] = append(snap.CQ[c], state.QueueEntry{Pid: pid(), Since: t0})
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		snap.Running = append(snap.Running, state.RunningEntry{Pid: pid(), Since: t0})
	}
	return snap
}

// randomSegment draws n events over a few pids, every primitive and
// flag, the spec's procedures and conditions and, rarely, a condition
// the spec does not declare. Most of them are faults, so processes sit
// on the lists and act from there.
func randomSegment(rng *rand.Rand, spec monitor.Spec, n int) event.Seq {
	procs := []string{"Op"}
	if spec.Kind == monitor.CommunicationCoordinator {
		procs = []string{spec.SendProc, spec.ReceiveProc}
	}
	conds := append(slices.Clone(spec.Conditions), "", "undeclared")
	types := []event.Type{event.Enter, event.Wait, event.SignalExit}
	seg := make(event.Seq, n)
	for i := range seg {
		seq := int64(i + 1)
		e := event.Event{
			Seq: seq, Monitor: spec.Name, Type: types[rng.Intn(len(types))],
			Pid: 1 + rng.Int63n(randomPids), Proc: procs[rng.Intn(len(procs))],
			Flag: rng.Intn(2), Time: t0.Add(time.Duration(seq) * time.Millisecond),
		}
		if e.Type != event.Enter {
			e.Cond = conds[rng.Intn(len(conds))]
		}
		seg[i] = e
	}
	return seg
}

// replayAgainstScan replays seg from snap event by event. Each event's
// ST-4 violations must equal scanST4 over the lists as they stood
// before it, and the pid index must equal a recount of the lists after
// it. Replaying seg again in random batches must give the same
// violations, which it returns.
func replayAgainstScan(t *testing.T, rng *rand.Rand, spec monitor.Spec, snap state.Snapshot, seg event.Seq) []rules.Violation {
	t.Helper()
	l := FromSnapshot(spec, snap, 0, 0)
	for i := range seg {
		e := &seg[i]
		want := scanST4(l, e)
		n := len(l.Violations())
		l.Apply(e)
		if got := onlyST4(l.Violations()[n:]); !reflect.DeepEqual(verdicts(got), verdicts(want)) {
			t.Fatalf("%s, %v: index reports %v, scan %v", spec.Name, e, got, want)
		}
		if scan := listedByScan(l); !maps.Equal(l.listed, scan) {
			t.Fatalf("%s, after %v: index %v, lists hold %v", spec.Name, e, l.listed, scan)
		}
	}

	b := FromSnapshot(spec, snap, 0, 0)
	for rest := seg; len(rest) > 0; {
		k := 1 + rng.Intn(len(rest))
		b.Replay(rest[:k])
		rest = rest[k:]
	}
	if got, want := verdicts(b.Violations()), verdicts(l.Violations()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: batched replay differs from event-by-event replay:\n%v\n%v", spec.Name, got, want)
	}
	return l.Violations()
}

// TestST4IndexMatchesScan holds the pid index to scanST4 over seeded
// random segments replayed from seeded random snapshots, for both list
// shapes, and over a fault-free contended segment whose waiters act
// again once admitted, which must raise nothing.
func TestST4IndexMatchesScan(t *testing.T) {
	t.Parallel()
	hits := map[faults.Kind]int{}
	for _, spec := range []monitor.Spec{managerSpec(), coordSpec()} {
		for seed := int64(1); seed <= 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			snap := randomSnapshot(rng, spec)
			for _, v := range onlyST4(replayAgainstScan(t, rng, spec, snap, randomSegment(rng, spec, 100))) {
				hits[v.Fault]++
			}
		}
	}
	if hits[faults.EnterLostProcess] == 0 || hits[faults.WaitNoBlock] == 0 {
		t.Fatalf("random segments never reached both ST-4 cases: %v", hits)
	}

	spec := managerSpec()
	if vs := replayAgainstScan(t, rand.New(rand.NewSource(0)), spec, emptySnap(spec), contendedSegment(70)); len(vs) != 0 {
		t.Fatalf("admitted waiters flagged: %v", vs)
	}
}

// TestViolationOrderIsDeclarationOrder: the walks over the
// Wait-Cond-Lists (ST-5 in CheckTimers, the ST-4 message walk) report
// in declaration order, declared conditions first and then any other
// condition by name, on every call.
func TestViolationOrderIsDeclarationOrder(t *testing.T) {
	t.Parallel()
	spec := coordSpec() // declares notFull, then notEmpty
	snap := emptySnap(spec)
	for i, c := range []string{"zeta", "notEmpty", "alpha", "notFull"} {
		snap.CQ[c] = []state.QueueEntry{{Pid: 7, Since: t0.Add(time.Duration(i) * time.Second)}}
	}
	wantConds := []string{"notFull", "notEmpty", "alpha", "zeta"}

	l := FromSnapshot(spec, snap, 0, 0)
	for i := 0; i < 100; i++ {
		var conds []string
		for _, v := range l.CheckTimers(t0.Add(time.Hour), time.Minute, 0) {
			conds = append(conds, v.Cond)
		}
		if !slices.Equal(conds, wantConds) {
			t.Fatalf("call %d: ST-5 reports conditions %v, want %v", i, conds, wantConds)
		}
	}

	for i := 0; i < 100; i++ {
		l := FromSnapshot(spec, snap, 0, 0)
		apply(l, ev(1, event.SignalExit, 7, "Send", "", 0))
		var msgs []string
		for _, v := range onlyST4(l.Violations()) {
			msgs = append(msgs, v.Message)
		}
		want := make([]string, len(wantConds))
		for j, c := range wantConds {
			want[j] = "P7 emits Signal-Exit while still on Wait-Cond-List[" + c + "]"
		}
		if !slices.Equal(msgs, want) {
			t.Fatalf("run %d: ST-4 messages %v, want %v", i, msgs, want)
		}
	}
}

// contendedSegment is a fault-free manager trace of n events in which
// every cycle puts a process on Enter-0-List and one on the
// Wait-Cond-List, then admits both.
func contendedSegment(n int) event.Seq {
	cycle := []event.Event{
		{Type: event.Enter, Pid: 1, Flag: event.Completed},
		{Type: event.Enter, Pid: 2, Flag: event.Blocked},
		{Type: event.Wait, Pid: 1, Cond: "ok"}, // admits P2
		{Type: event.Enter, Pid: 3, Flag: event.Blocked},
		{Type: event.SignalExit, Pid: 2, Cond: "ok", Flag: event.Completed}, // resumes P1
		{Type: event.SignalExit, Pid: 1, Flag: event.Blocked},               // admits P3
		{Type: event.SignalExit, Pid: 3, Flag: event.Blocked},
	}
	seg := make(event.Seq, n)
	for i := range seg {
		e := cycle[i%len(cycle)]
		e.Seq, e.Monitor, e.Proc = int64(i+1), "m", "Op"
		e.Time = t0.Add(time.Duration(i) * time.Millisecond)
		seg[i] = e
	}
	return seg
}

// TestReplayAllocsIndependentOfLength pins the per-event replay path,
// the pid index included, as allocation-free: a contended segment
// eight times longer costs no more allocations.
func TestReplayAllocsIndependentOfLength(t *testing.T) {
	spec := managerSpec()
	allocs := func(n int) float64 {
		seg := contendedSegment(n)
		var violations int
		got := testing.AllocsPerRun(50, func() {
			l := FromSnapshot(spec, emptySnap(spec), 0, 0)
			l.Replay(seg)
			violations += len(l.Violations())
		})
		if violations != 0 {
			t.Fatalf("contended segment of %d events is not fault-free", n)
		}
		return got
	}
	if short, long := allocs(512), allocs(4096); short != long {
		t.Fatalf("replay allocates %v times at 512 events but %v at 4,096", short, long)
	}
}
