// Package checklists implements the pseudo-historical checking lists of
// §3.3.1 — Enter-0-List, the Wait-Cond-Lists, Running-List, Resource-No
// and Request-List — together with the per-event ST-Rule checks the
// detection algorithms perform while replaying a segment.
//
// A Lists value is seeded from the monitor snapshot taken at the
// previous checkpoint (s_p), replays the event segment L recorded since
// then, and is finally compared against the current snapshot (s_t).
// Any event that cannot be explained as a consistent state
// transformation, and any disagreement between the reconstructed lists
// and the actual monitor state, is a rule violation.
//
// Replay is incremental on purpose: the batched checkpoint path
// (detect.Config.BatchSize over history.DB.DrainMonitorUpTo) seeds a
// Lists once per checkpoint via FromSnapshot and then feeds it the
// segment in bounded slices through Lists.Replay (or Apply, event by
// event, for allocator monitors whose request list interleaves its
// findings with the replay). Splitting a segment across any number of
// Replay calls yields the same violations as one call over the whole
// segment — that invariant is what makes batched checkpoints
// detection-equivalent to the paper's single-drain Step 1, and it also
// means a shard-local recovery reset can simply throw a seeded Lists
// away and reseed from the post-reset snapshot.
//
// One deliberate deviation from the paper's literal text: §3.3.1 says
// every Wait or Signal-Exit deletes the head of Enter-0-List. Taken
// literally that double-counts Signal-Exit events that resumed a
// condition waiter (flag 1), which hand the monitor to the condition
// queue, not the entry queue. We pop Enter-0-List on Wait and on
// Signal-Exit with flag 0, and pop the Wait-Cond-List on Signal-Exit
// with flag 1, which is the transition the FD-Rules (1.b, 1.c) actually
// specify.
package checklists

import (
	"fmt"
	"slices"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/rules"
	"robustmon/internal/state"
)

// Entry is one element of a checking list: the paper's Pid(Pr) pairs
// plus the enqueue instant backing Timer(Pid).
type Entry struct {
	Pid   int64
	Proc  string
	Since time.Time
}

// Lists holds the checking lists for one monitor over one checking
// segment. Construct with FromSnapshot.
type Lists struct {
	spec monitor.Spec

	// EnterQ is Enter-0-List: processes awaiting entry. Only Lists'
	// own methods may write it, because the pid index ST-4 reads must
	// match it.
	EnterQ []Entry
	// WaitCond maps each condition to its Wait-Cond-List. Only Lists'
	// own methods may write it, because the pid index ST-4 reads must
	// match it.
	WaitCond map[string][]Entry
	// Running is Running-List: processes inside the monitor. Correct
	// operation keeps it at most a singleton. Only Lists' own methods
	// may write it, so that it moves in step with EnterQ and WaitCond.
	Running []Entry
	// ResourceNo is Resource-No, the reconstructed R#.
	ResourceNo int
	// Sends and Recvs are the cumulative successful Send/Receive counts
	// (the paper's s and r), seeded with the totals carried over from
	// previous segments.
	Sends, Recvs int

	// listed counts, per pid, the entries on Enter-0-List and the
	// Wait-Cond-Lists, so ST-4 costs a lookup instead of a scan. It is
	// allocated on the first push; a pid leaves it when its count
	// reaches zero, so it is empty whenever nobody waits.
	listed map[int64]int

	violations []rules.Violation
}

// FromSnapshot seeds the checking lists from the previous checkpoint's
// snapshot, as Algorithm-1 Step 1 prescribes. prevSends/prevRecvs carry
// the cumulative r and s counters across checkpoints (ST-Rule 7a is an
// invariant over the whole run, not one segment).
func FromSnapshot(spec monitor.Spec, snap state.Snapshot, prevSends, prevRecvs int) *Lists {
	l := &Lists{
		spec:       spec,
		WaitCond:   make(map[string][]Entry, len(snap.CQ)),
		ResourceNo: snap.Resources,
		Sends:      prevSends,
		Recvs:      prevRecvs,
	}
	for _, e := range snap.EQ {
		l.EnterQ = append(l.EnterQ, Entry{Pid: e.Pid, Proc: e.Proc, Since: e.Since})
		l.list(e.Pid)
	}
	for cond, q := range snap.CQ {
		entries := make([]Entry, 0, len(q))
		for _, e := range q {
			entries = append(entries, Entry{Pid: e.Pid, Proc: e.Proc, Since: e.Since})
			l.list(e.Pid)
		}
		l.WaitCond[cond] = entries
	}
	for _, cond := range spec.Conditions {
		if _, ok := l.WaitCond[cond]; !ok {
			l.WaitCond[cond] = nil
		}
	}
	for _, r := range snap.Running {
		l.Running = append(l.Running, Entry{Pid: r.Pid, Since: r.Since})
	}
	return l
}

// Violations returns the violations found so far during replay.
func (l *Lists) Violations() []rules.Violation { return l.violations }

// Replay applies one batch of a checking segment, in order. A Lists
// value seeded once with FromSnapshot can Replay any number of
// consecutive batches before the final CompareWith/CheckTimers pass —
// this is the incremental seeding behind the detector's batched
// checkpoints: the per-checkpoint seeding cost is paid once per
// checkpoint, not once per batch, and a huge segment can be drained
// and replayed in bounded slices.
func (l *Lists) Replay(seg event.Seq) {
	for i := range seg {
		l.Apply(&seg[i])
	}
}

func (l *Lists) violate(rule rules.ID, e *event.Event, fault faults.Kind, format string, args ...any) {
	l.violations = append(l.violations, rules.Violation{
		Rule:    rule,
		Monitor: l.spec.Name,
		Pid:     e.Pid,
		Proc:    e.Proc,
		Cond:    e.Cond,
		Seq:     e.Seq,
		At:      e.Time,
		Fault:   fault,
		Message: fmt.Sprintf(format, args...),
	})
}

// Apply replays one event through the lists, performing the Step-1
// checks of Algorithm-1 and Algorithm-2.
func (l *Lists) Apply(e *event.Event) {
	l.checkST4(e)
	switch e.Type {
	case event.Enter:
		l.applyEnter(e)
	case event.Wait:
		l.applyWait(e)
	case event.SignalExit:
		l.applySignalExit(e)
	}
	if len(l.Running) > 1 {
		l.violate(rules.ST3a, e, l.mutexFault(e),
			"Running-List has %d processes: %v", len(l.Running), l.runningPids())
	}
}

// mutexFault classifies an ST-3a violation by the primitive that
// caused the double occupancy.
func (l *Lists) mutexFault(e *event.Event) faults.Kind {
	switch e.Type {
	case event.Enter:
		return faults.EnterMutexViolation
	case event.Wait:
		return faults.WaitMutexViolation
	default:
		return faults.SignalMutexViolation
	}
}

// checkST4 enforces ST-Rule 4: the causing process of a new event must
// not be sitting on Enter-0-List or any Wait-Cond-List. The pid index
// answers that; the lists are walked only to word a violation, one per
// entry the process holds.
func (l *Lists) checkST4(e *event.Event) {
	if len(l.listed) == 0 || l.listed[e.Pid] == 0 {
		return
	}
	for _, w := range l.EnterQ {
		if w.Pid == e.Pid {
			l.violate(rules.ST4, e, faults.EnterLostProcess,
				"P%d emits %s while still on Enter-0-List", e.Pid, e.Type)
		}
	}
	for _, cond := range l.condOrder() {
		for _, w := range l.WaitCond[cond] {
			if w.Pid == e.Pid {
				l.violate(rules.ST4, e, faults.WaitNoBlock,
					"P%d emits %s while still on Wait-Cond-List[%s]", e.Pid, e.Type, cond)
			}
		}
	}
}

// condOrder returns the Wait-Cond-List names in declaration order:
// spec.Conditions first, then any other condition the lists hold, by
// name. Every walk over the Wait-Cond-Lists uses it, so a checkpoint
// reports its violations in the same order on every run.
func (l *Lists) condOrder() []string {
	var extra []string
	for cond := range l.WaitCond {
		if !slices.Contains(l.spec.Conditions, cond) {
			extra = append(extra, cond)
		}
	}
	if extra == nil {
		return l.spec.Conditions
	}
	slices.Sort(extra)
	return append(slices.Clip(l.spec.Conditions), extra...)
}

// list and unlist keep the pid index in step with a push onto, or a
// pop off, Enter-0-List or a Wait-Cond-List.
func (l *Lists) list(pid int64) {
	if l.listed == nil {
		l.listed = make(map[int64]int)
	}
	l.listed[pid]++
}

func (l *Lists) unlist(pid int64) {
	if n := l.listed[pid] - 1; n > 0 {
		l.listed[pid] = n
	} else {
		delete(l.listed, pid)
	}
}

// popHead removes a list's head in place, so the backing array stays
// for the next push and a replay in steady state allocates nothing.
func popHead(q []Entry) []Entry {
	n := copy(q, q[1:])
	q[n] = Entry{}
	return q[:n]
}

func (l *Lists) applyEnter(e *event.Event) {
	if e.Flag == event.Completed {
		// ST-3c: immediately granted entry requires an empty Running-List.
		if len(l.Running) != 0 {
			l.violate(rules.ST3c, e, faults.EnterMutexViolation,
				"Enter(flag 1) while Running-List = %v", l.runningPids())
		}
		l.Running = append(l.Running, Entry{Pid: e.Pid, Proc: e.Proc, Since: e.Time})
		return
	}
	// ST-3d: a delayed entry requires exactly one running process.
	if len(l.Running) != 1 {
		l.violate(rules.ST3d, e, faults.EnterNoResponse,
			"Enter(flag 0) while Running-List = %v (monitor not in use)", l.runningPids())
	}
	l.EnterQ = append(l.EnterQ, Entry{Pid: e.Pid, Proc: e.Proc, Since: e.Time})
	l.list(e.Pid)
}

func (l *Lists) applyWait(e *event.Event) {
	l.checkST3b(e)
	l.removeRunning(e.Pid)
	if l.spec.Kind == monitor.CommunicationCoordinator {
		// ST-7c / ST-7d: a coordinator procedure may only be delayed at
		// the matching buffer boundary.
		switch e.Proc {
		case l.spec.SendProc:
			if l.ResourceNo != 0 {
				l.violate(rules.ST7c, e, faults.SendSpuriousDelay,
					"Send waits although Resource-No=%d ≠ 0", l.ResourceNo)
			}
		case l.spec.ReceiveProc:
			if l.ResourceNo != l.spec.Rmax {
				l.violate(rules.ST7d, e, faults.ReceiveSpuriousDelay,
					"Receive waits although Resource-No=%d ≠ Rmax=%d", l.ResourceNo, l.spec.Rmax)
			}
		}
	}
	l.WaitCond[e.Cond] = append(l.WaitCond[e.Cond], Entry{Pid: e.Pid, Proc: e.Proc, Since: e.Time})
	l.list(e.Pid)
	l.popEnterQ(e)
}

func (l *Lists) applySignalExit(e *event.Event) {
	l.checkST3b(e)
	l.removeRunning(e.Pid)
	if e.Flag == event.Completed {
		q := l.WaitCond[e.Cond]
		if len(q) == 0 {
			l.violate(rules.ST2, e, 0,
				"Signal-Exit(flag 1) but Wait-Cond-List[%s] is empty", e.Cond)
		} else {
			head := q[0]
			l.WaitCond[e.Cond] = popHead(q)
			l.unlist(head.Pid)
			l.Running = append(l.Running, Entry{Pid: head.Pid, Proc: head.Proc, Since: e.Time})
		}
	} else {
		l.popEnterQ(e)
	}
	if l.spec.Kind == monitor.CommunicationCoordinator {
		switch e.Proc {
		case l.spec.SendProc:
			l.Sends++
			l.ResourceNo--
		case l.spec.ReceiveProc:
			l.Recvs++
			l.ResourceNo++
		}
		if !(0 <= l.Recvs && l.Recvs <= l.Sends && l.Sends <= l.Recvs+l.spec.Rmax) {
			fault := faults.SendOverflow
			if l.Recvs > l.Sends {
				fault = faults.ReceiveOvertake
			}
			l.violate(rules.ST7a, e, fault,
				"0 ≤ r ≤ s ≤ r+Rmax violated: r=%d s=%d Rmax=%d", l.Recvs, l.Sends, l.spec.Rmax)
		}
	}
}

// checkST3b enforces ST-Rule 3b: a Wait or Signal-Exit may only come
// from the single process in Running-List.
func (l *Lists) checkST3b(e *event.Event) {
	if len(l.Running) == 1 && l.Running[0].Pid == e.Pid {
		return
	}
	l.violate(rules.ST3b, e, faults.EnterNotObserved,
		"%s by P%d but Running-List = %v", e.Type, e.Pid, l.runningPids())
}

func (l *Lists) removeRunning(pid int64) {
	for i, r := range l.Running {
		if r.Pid == pid {
			l.Running = append(l.Running[:i], l.Running[i+1:]...)
			return
		}
	}
}

// popEnterQ models the resumption of the entry-queue head caused by a
// Wait or a non-signalling Signal-Exit.
func (l *Lists) popEnterQ(e *event.Event) {
	if len(l.EnterQ) == 0 {
		return
	}
	head := l.EnterQ[0]
	l.EnterQ = popHead(l.EnterQ)
	l.unlist(head.Pid)
	l.Running = append(l.Running, Entry{Pid: head.Pid, Proc: head.Proc, Since: e.Time})
}

func (l *Lists) runningPids() []int64 {
	out := make([]int64, len(l.Running))
	for i, r := range l.Running {
		out[i] = r.Pid
	}
	return out
}

// CompareWith performs Step 2 of Algorithm-1/2: the reconstructed lists
// must equal the actual monitor state at the current checkpoint.
func (l *Lists) CompareWith(snap state.Snapshot) []rules.Violation {
	var out []rules.Violation
	eq := make([]int64, len(l.EnterQ))
	for i, w := range l.EnterQ {
		eq[i] = w.Pid
	}
	cq := make(map[string][]int64, len(l.WaitCond))
	for cond, q := range l.WaitCond {
		pids := make([]int64, len(q))
		for i, w := range q {
			pids[i] = w.Pid
		}
		cq[cond] = pids
	}
	wantRes := l.spec.Kind == monitor.CommunicationCoordinator
	for _, d := range snap.CompareLists(eq, cq, l.runningPids(), l.ResourceNo, wantRes) {
		v := rules.Violation{
			Monitor: l.spec.Name,
			At:      snap.At,
			Message: fmt.Sprintf("reconstructed %s = %s but actual = %s", d.Field, d.Got, d.Want),
		}
		switch {
		case d.Field == "EQ":
			v.Rule, v.Fault = rules.ST1, faults.EnterLostProcess
		case d.Field == "Running":
			v.Rule, v.Fault = rules.STrn, faults.SignalMonitorNotReleased
		case d.Field == "Resources":
			v.Rule = rules.STrs
		default: // CQ[...]
			v.Rule, v.Fault = rules.ST2, faults.WaitLostProcess
		}
		out = append(out, v)
	}
	return out
}

// CheckTimers performs the timer checks of Algorithm-1 Step 2: ST-Rule
// 5 (Tmax on Running-List and the Wait-Cond-Lists) and ST-Rule 6 (Tio
// on Enter-0-List). Zero durations disable the corresponding check.
func (l *Lists) CheckTimers(now time.Time, tmax, tio time.Duration) []rules.Violation {
	var out []rules.Violation
	if tmax > 0 {
		for _, r := range l.Running {
			if now.Sub(r.Since) >= tmax {
				out = append(out, rules.Violation{
					Rule: rules.ST5, Monitor: l.spec.Name, Pid: r.Pid, At: now,
					Fault:   faults.InternalTermination,
					Message: fmt.Sprintf("Timer(P%d) = %v ≥ Tmax on Running-List", r.Pid, now.Sub(r.Since)),
				})
			}
		}
		for _, cond := range l.condOrder() {
			for _, w := range l.WaitCond[cond] {
				if now.Sub(w.Since) >= tmax {
					out = append(out, rules.Violation{
						Rule: rules.ST5, Monitor: l.spec.Name, Pid: w.Pid, Cond: cond, At: now,
						Fault:   faults.SignalNoResume,
						Message: fmt.Sprintf("Timer(P%d) = %v ≥ Tmax on Wait-Cond-List[%s]", w.Pid, now.Sub(w.Since), cond),
					})
				}
			}
		}
	}
	if tio > 0 {
		for _, w := range l.EnterQ {
			if now.Sub(w.Since) >= tio {
				out = append(out, rules.Violation{
					Rule: rules.ST6, Monitor: l.spec.Name, Pid: w.Pid, At: now,
					Fault:   faults.EnterNoResponse,
					Message: fmt.Sprintf("Timer(P%d) = %v ≥ Tio on Enter-0-List", w.Pid, now.Sub(w.Since)),
				})
			}
		}
	}
	return out
}
