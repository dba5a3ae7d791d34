package rules

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/faults"
	"robustmon/internal/monitor"
	"robustmon/internal/pathexpr"
	"robustmon/internal/state"
)

// Config parameterises the FD-rule checker for one monitor's trace.
type Config struct {
	// Spec is the monitor declaration (kind, conditions, Rmax,
	// Send/Receive procedures, call order).
	Spec monitor.Spec
	// Tmax bounds time inside the monitor or on a condition queue
	// (FD-2). Zero disables the check.
	Tmax time.Duration
	// Tio bounds entry-queue waiting (FD-4). Zero disables the check.
	Tio time.Duration
	// Tlimit bounds how long a call-order obligation (an unreleased
	// resource) may stay open (FD-7c). Zero disables the check.
	Tlimit time.Duration
	// End is the instant the trace was cut; timers are evaluated
	// against it. The zero value disables all timer checks.
	End time.Time
	// Final, when non-nil, is the actual monitor state at End; the
	// checker compares it against the state reconstructed from the
	// trace, which is how lost processes are caught (FD-4).
	Final *state.Snapshot
}

// Check replays the trace for one monitor against FD-Rules 1–7 and
// returns every violation found. The trace must contain only events of
// the configured monitor, in order.
func Check(trace event.Seq, cfg Config) []Violation {
	c := &fdChecker{
		cfg:      cfg,
		inside:   make(map[int64]time.Time),
		cq:       make(map[string][]listEntry, len(cfg.Spec.Conditions)),
		res:      cfg.Spec.Rmax,
		matchers: make(map[int64]*pathState),
	}
	for _, cond := range cfg.Spec.Conditions {
		c.cq[cond] = nil
	}
	// Spec.Validate compiled the expression when the monitor was built;
	// recompile here so offline checking works from a bare Spec. A
	// broken declaration disables order checking (it could never have
	// produced a running monitor).
	if p, err := cfg.Spec.Validate(); err == nil {
		c.path = p
	}
	for _, e := range trace {
		c.step(e)
	}
	c.finish()
	return c.out
}

type listEntry struct {
	pid   int64
	proc  string
	since time.Time
}

// pathState is one process's position in the declared call order plus
// the instant its current (unfinished) traversal opened — the analogue
// of its Request-List residency.
type pathState struct {
	m         *pathexpr.Matcher
	openSince time.Time
}

type fdChecker struct {
	cfg  Config
	out  []Violation
	path *pathexpr.Path

	inside   map[int64]time.Time
	eq       []listEntry
	cq       map[string][]listEntry
	r, s     int
	res      int
	matchers map[int64]*pathState
}

func (c *fdChecker) violate(rule ID, e event.Event, fault faults.Kind, format string, args ...any) {
	c.out = append(c.out, Violation{
		Rule:    rule,
		Monitor: c.cfg.Spec.Name,
		Pid:     e.Pid,
		Proc:    e.Proc,
		Cond:    e.Cond,
		Seq:     e.Seq,
		At:      e.Time,
		Fault:   fault,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *fdChecker) step(e event.Event) {
	switch e.Type {
	case event.Enter:
		c.stepEnter(e)
	case event.Wait:
		c.stepWait(e)
	case event.SignalExit:
		c.stepSignalExit(e)
	}
}

// checkNotListed enforces the premise shared by FD-1 and FD-5: a
// process that emits a new event must not currently be parked on a
// queue (it could only act if it was resumed outside the protocol).
func (c *fdChecker) checkNotListed(e event.Event) {
	for _, w := range c.eq {
		if w.pid == e.Pid {
			c.violate(FD5b, e, faults.EnterLostProcess,
				"P%d acts while still on the entry queue (resumed without handoff)", e.Pid)
		}
	}
	for _, cond := range c.condOrder() {
		for _, w := range c.cq[cond] {
			if w.pid == e.Pid {
				c.violate(FD5a, e, faults.WaitNoBlock,
					"P%d acts while still waiting on condition %q (resumed without signal)", e.Pid, cond)
			}
		}
	}
}

func (c *fdChecker) stepEnter(e event.Event) {
	c.checkNotListed(e)
	c.stepPath(e)
	if _, ok := c.inside[e.Pid]; ok {
		c.violate(FD1a, e, faults.EnterMutexViolation,
			"P%d re-enters while already inside", e.Pid)
	}
	if e.Flag == event.Completed {
		if len(c.inside) > 0 {
			c.violate(FD1a, e, faults.EnterMutexViolation,
				"entry granted while %d process(es) inside", len(c.inside))
		}
		c.inside[e.Pid] = e.Time
		return
	}
	// Blocked entry: FD-3 requires the monitor to actually be in use.
	if len(c.inside) == 0 && len(c.eq) == 0 {
		c.violate(FD3, e, faults.EnterNoResponse,
			"entry delayed although the monitor is free")
	}
	c.eq = append(c.eq, listEntry{pid: e.Pid, proc: e.Proc, since: e.Time})
}

func (c *fdChecker) stepWait(e event.Event) {
	c.checkNotListed(e)
	if _, ok := c.inside[e.Pid]; !ok {
		c.violate(FD1d, e, faults.EnterNotObserved,
			"Wait by a process that never entered the monitor")
	}
	delete(c.inside, e.Pid)
	if c.cfg.Spec.Kind == monitor.CommunicationCoordinator {
		switch e.Proc {
		case c.cfg.Spec.SendProc:
			if c.res != 0 {
				c.violate(FD6b, e, faults.SendSpuriousDelay,
					"Send delayed although R#=%d (buffer not full)", c.res)
			}
		case c.cfg.Spec.ReceiveProc:
			if c.res != c.cfg.Spec.Rmax {
				c.violate(FD6c, e, faults.ReceiveSpuriousDelay,
					"Receive delayed although R#=%d (buffer not empty)", c.res)
			}
		}
	}
	c.cq[e.Cond] = append(c.cq[e.Cond], listEntry{pid: e.Pid, proc: e.Proc, since: e.Time})
	c.resumeEntryHead(e)
}

func (c *fdChecker) stepSignalExit(e event.Event) {
	c.checkNotListed(e)
	if _, ok := c.inside[e.Pid]; !ok {
		c.violate(FD1d, e, faults.EnterNotObserved,
			"Signal-Exit by a process that never entered the monitor")
	}
	delete(c.inside, e.Pid)
	if e.Flag == event.Completed {
		q := c.cq[e.Cond]
		if len(q) == 0 {
			c.violate(FD1c, e, 0,
				"signal claims to resume a waiter but condition %q has none", e.Cond)
		} else {
			head := q[0]
			c.cq[e.Cond] = q[1:]
			c.inside[head.pid] = e.Time
		}
	} else {
		c.resumeEntryHead(e)
	}
	if c.cfg.Spec.Kind == monitor.CommunicationCoordinator {
		switch e.Proc {
		case c.cfg.Spec.SendProc:
			c.s++
			c.res--
		case c.cfg.Spec.ReceiveProc:
			c.r++
			c.res++
		}
		if !(0 <= c.r && c.r <= c.s && c.s <= c.r+c.cfg.Spec.Rmax) {
			fault := faults.SendOverflow
			if c.r > c.s {
				fault = faults.ReceiveOvertake
			}
			c.violate(FD6a, e, fault,
				"resource invariant violated: r=%d s=%d Rmax=%d", c.r, c.s, c.cfg.Spec.Rmax)
		}
	}
}

// resumeEntryHead models FD-1b: a Wait or non-signalling Signal-Exit
// passes the monitor to the head of the entry queue when one waits.
func (c *fdChecker) resumeEntryHead(e event.Event) {
	if len(c.eq) == 0 {
		return
	}
	head := c.eq[0]
	c.eq = c.eq[1:]
	c.inside[head.pid] = e.Time
}

// stepPath applies FD-7: each process's calls to order-constrained
// procedures must follow the declared path expression. Steps happen at
// Enter events (each procedure call has exactly one Enter).
func (c *fdChecker) stepPath(e event.Event) {
	if c.path == nil || !c.path.Mentions(e.Proc) {
		return
	}
	ps := c.matchers[e.Pid]
	if ps == nil {
		ps = &pathState{m: c.path.NewMatcher()}
		c.matchers[e.Pid] = ps
	}
	if err := ps.m.Step(e.Proc); err != nil {
		rule, fault := FD7a, faults.SelfDeadlock
		if ps.openSince.IsZero() {
			// Violation from a boundary state: an operation (e.g.
			// Release) arrived before its prerequisite (Acquire).
			rule, fault = FD7b, faults.ReleaseWithoutAcquire
		}
		c.violate(rule, e, fault, "%v", err)
		return
	}
	if ps.m.AtCycleBoundary() {
		ps.openSince = time.Time{}
	} else if ps.openSince.IsZero() {
		ps.openSince = e.Time
	}
}

// finish applies the end-of-trace checks: timers (FD-2, FD-4, FD-7c)
// and, when a final snapshot is supplied, the reconstructed-vs-actual
// state comparison that exposes lost processes (FD-4) and stale
// occupancy (FD-1).
func (c *fdChecker) finish() {
	if end := c.cfg.End; !end.IsZero() {
		c.checkTimers(end)
	}
	if c.cfg.Final != nil {
		c.compareFinal(*c.cfg.Final)
	}
}

// condOrder returns the condition-queue names in declaration order:
// Spec.Conditions first, then any other condition the trace used, by
// name. With pids walked in ascending order, every walk over the
// checker's maps reports in the same order on every run, as the
// checklists' walks do.
func (c *fdChecker) condOrder() []string {
	var extra []string
	for cond := range c.cq {
		if !slices.Contains(c.cfg.Spec.Conditions, cond) {
			extra = append(extra, cond)
		}
	}
	if extra == nil {
		return c.cfg.Spec.Conditions
	}
	slices.Sort(extra)
	return append(slices.Clip(c.cfg.Spec.Conditions), extra...)
}

func (c *fdChecker) checkTimers(end time.Time) {
	if c.cfg.Tmax > 0 {
		for _, pid := range slices.Sorted(maps.Keys(c.inside)) {
			if since := c.inside[pid]; end.Sub(since) >= c.cfg.Tmax {
				c.out = append(c.out, Violation{
					Rule: FD2, Monitor: c.cfg.Spec.Name, Pid: pid, At: end,
					Fault:   faults.InternalTermination,
					Message: fmt.Sprintf("P%d inside the monitor for %v ≥ Tmax", pid, end.Sub(since)),
				})
			}
		}
		for _, cond := range c.condOrder() {
			for _, w := range c.cq[cond] {
				if end.Sub(w.since) >= c.cfg.Tmax {
					c.out = append(c.out, Violation{
						Rule: FD4, Monitor: c.cfg.Spec.Name, Pid: w.pid, Cond: cond, At: end,
						Fault:   faults.SignalNoResume,
						Message: fmt.Sprintf("P%d waiting on %q for %v ≥ Tmax", w.pid, cond, end.Sub(w.since)),
					})
				}
			}
		}
	}
	if c.cfg.Tio > 0 {
		for _, w := range c.eq {
			if end.Sub(w.since) >= c.cfg.Tio {
				c.out = append(c.out, Violation{
					Rule: FD4, Monitor: c.cfg.Spec.Name, Pid: w.pid, At: end,
					Fault:   faults.EnterNoResponse,
					Message: fmt.Sprintf("P%d on the entry queue for %v ≥ Tio", w.pid, end.Sub(w.since)),
				})
			}
		}
	}
	if c.cfg.Tlimit > 0 {
		for _, pid := range slices.Sorted(maps.Keys(c.matchers)) {
			if ps := c.matchers[pid]; !ps.openSince.IsZero() && end.Sub(ps.openSince) >= c.cfg.Tlimit {
				c.out = append(c.out, Violation{
					Rule: FD7c, Monitor: c.cfg.Spec.Name, Pid: pid, At: end,
					Fault:   faults.ResourceNeverReleased,
					Message: fmt.Sprintf("P%d holds an unreleased obligation for %v ≥ Tlimit", pid, end.Sub(ps.openSince)),
				})
			}
		}
	}
}

func (c *fdChecker) compareFinal(snap state.Snapshot) {
	eq := make([]int64, len(c.eq))
	for i, w := range c.eq {
		eq[i] = w.pid
	}
	cq := make(map[string][]int64, len(c.cq))
	for cond, q := range c.cq {
		pids := make([]int64, len(q))
		for i, w := range q {
			pids[i] = w.pid
		}
		cq[cond] = pids
	}
	running := slices.Sorted(maps.Keys(c.inside))
	wantRes := c.cfg.Spec.Kind == monitor.CommunicationCoordinator
	for _, d := range snap.CompareLists(eq, cq, running, c.res, wantRes) {
		rule := FD4
		var fault faults.Kind
		switch d.Field {
		case "Running":
			rule, fault = FD1a, faults.SignalMonitorNotReleased
		case "Resources":
			rule = FD6a
		}
		c.out = append(c.out, Violation{
			Rule: rule, Monitor: c.cfg.Spec.Name, At: snap.At, Fault: fault,
			Message: fmt.Sprintf("reconstructed %s = %s but actual = %s", d.Field, d.Got, d.Want),
		})
	}
}
