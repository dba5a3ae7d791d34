package checklists

import (
	"fmt"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/rules"
)

// RequestList is the §3.3.1 Request-List for a resource-access-right
// allocator: the processes currently holding (or requesting) the
// resource. Unlike the other checking lists it is initialised once and
// persists across checkpoints (§3.3.2 — "No Pid can be in Request-List
// forever" only makes sense for a list that outlives one segment).
//
// ST-Rule 8 checks:
//
//	8a — no Pid appears twice (a process re-acquiring what it holds is
//	     deadlocked with itself);
//	8b — a Release must come from a Pid on the list;
//	8c — no Pid stays on the list past Tlimit.
type RequestList struct {
	spec    monitor.Spec
	entries []Entry
}

// NewRequestList returns an empty Request-List for the given allocator
// declaration. It is inert (Apply never flags anything) when the spec
// does not name AcquireProc/ReleaseProc.
func NewRequestList(spec monitor.Spec) *RequestList {
	return &RequestList{spec: spec}
}

// Enabled reports whether the declaration names the acquire/release
// procedures, i.e. whether Algorithm-3's Request-List mechanics apply.
func (r *RequestList) Enabled() bool {
	return r.spec.AcquireProc != "" && r.spec.ReleaseProc != ""
}

// Pids returns the pids currently on the list, in acquisition order.
func (r *RequestList) Pids() []int64 {
	out := make([]int64, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Pid
	}
	return out
}

// Apply replays one event, returning any ST-Rule 8 violations.
//
// Following the paper: the list grows at Enter(Pid, Acquire) — both
// flags, a queued request is still a request — and shrinks at
// Signal-Exit(Pid, Release). Membership for a Release is checked at its
// Enter so the violation is attributed to the offending call.
func (r *RequestList) Apply(e *event.Event) []rules.Violation {
	if !r.Enabled() {
		return nil
	}
	var out []rules.Violation
	switch {
	case e.Type == event.Enter && e.Proc == r.spec.AcquireProc:
		for _, cur := range r.entries {
			if cur.Pid == e.Pid {
				out = append(out, rules.Violation{
					Rule: rules.ST8a, Monitor: r.spec.Name, Pid: e.Pid, Proc: e.Proc,
					Seq: e.Seq, At: e.Time, Fault: faults.SelfDeadlock,
					Message: fmt.Sprintf("P%d acquires again while already on Request-List", e.Pid),
				})
			}
		}
		r.entries = append(r.entries, Entry{Pid: e.Pid, Proc: e.Proc, Since: e.Time})
	case e.Type == event.Enter && e.Proc == r.spec.ReleaseProc:
		if !r.contains(e.Pid) {
			out = append(out, rules.Violation{
				Rule: rules.ST8b, Monitor: r.spec.Name, Pid: e.Pid, Proc: e.Proc,
				Seq: e.Seq, At: e.Time, Fault: faults.ReleaseWithoutAcquire,
				Message: fmt.Sprintf("P%d releases but is not on Request-List", e.Pid),
			})
		}
	case e.Type == event.SignalExit && e.Proc == r.spec.ReleaseProc:
		r.remove(e.Pid)
	}
	return out
}

// CheckTimers performs Algorithm-3 Step 2: no process may stay on the
// Request-List for Tlimit or longer. A zero tlimit disables the check.
func (r *RequestList) CheckTimers(now time.Time, tlimit time.Duration) []rules.Violation {
	if !r.Enabled() || tlimit <= 0 {
		return nil
	}
	var out []rules.Violation
	for _, e := range r.entries {
		if now.Sub(e.Since) >= tlimit {
			out = append(out, rules.Violation{
				Rule: rules.ST8c, Monitor: r.spec.Name, Pid: e.Pid, At: now,
				Fault:   faults.ResourceNeverReleased,
				Message: fmt.Sprintf("P%d on Request-List for %v ≥ Tlimit", e.Pid, now.Sub(e.Since)),
			})
		}
	}
	return out
}

func (r *RequestList) contains(pid int64) bool {
	for _, e := range r.entries {
		if e.Pid == pid {
			return true
		}
	}
	return false
}

func (r *RequestList) remove(pid int64) {
	for i, e := range r.entries {
		if e.Pid == pid {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return
		}
	}
}
