package monitor

import (
	"fmt"
	"sync"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/pathexpr"
	"robustmon/internal/proc"
	"robustmon/internal/queue"
	"robustmon/internal/state"
)

// Recorder receives scheduling events from the data-gathering routine.
// history.DB implements it; detect wraps it to add real-time checks.
// A nil recorder disables recording entirely — that configuration is
// the paper's "monitor without the extension" baseline in Table 1.
//
// Many monitors may share one Recorder: the sharded history database
// routes each event to the per-monitor shard named by Event.Monitor
// (which record fills in before forwarding), so concurrently running
// monitors wired to the same database never contend on a common lock.
type Recorder interface {
	// Append stores the event, assigns its sequence number, and returns
	// the stored copy.
	Append(event.Event) event.Event
}

type insideInfo struct {
	proc  string
	since time.Time
}

// Monitor is one augmented monitor instance. Construct with New. All
// exported methods are safe for concurrent use by multiple processes.
type Monitor struct {
	spec  Spec
	path  *pathexpr.Path
	clk   clock.Clock
	rec   Recorder
	hooks Hooks

	// gate is the checkpoint gate: primitives hold it for read during
	// their critical sections (never while parked), the detector holds
	// it for write while snapshotting, so a frozen monitor cannot
	// change state or emit events.
	gate sync.RWMutex

	mu        sync.Mutex
	entryQ    queue.TimedFIFO
	conds     map[string]*queue.TimedFIFO
	inside    map[int64]insideInfo
	parked    map[int64]*proc.P
	resources int
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithClock sets the clock (default: the wall clock).
func WithClock(c clock.Clock) Option {
	return func(m *Monitor) { m.clk = c }
}

// WithRecorder attaches the history database (or a checking tee). A
// monitor without a recorder runs bare, with no detection extension.
func WithRecorder(r Recorder) Option {
	return func(m *Monitor) { m.rec = r }
}

// WithHooks installs fault-injection hooks.
func WithHooks(h Hooks) Option {
	return func(m *Monitor) { m.hooks = h }
}

// New validates the spec and returns a ready monitor.
func New(spec Spec, opts ...Option) (*Monitor, error) {
	path, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		spec:   spec,
		path:   path,
		clk:    clock.Real{},
		conds:  make(map[string]*queue.TimedFIFO, len(spec.Conditions)),
		inside: make(map[int64]insideInfo, 2),
		parked: make(map[int64]*proc.P, 8),
	}
	for _, c := range spec.Conditions {
		m.conds[c] = &queue.TimedFIFO{}
	}
	if spec.Kind == CommunicationCoordinator {
		m.resources = spec.Rmax
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Name returns the monitor name.
func (m *Monitor) Name() string { return m.spec.Name }

// Spec returns a copy of the declaration.
func (m *Monitor) Spec() Spec { return m.spec }

// Path returns the compiled call-order declaration (nil when none).
func (m *Monitor) Path() *pathexpr.Path { return m.path }

// Enter requests entry to the monitor from procedure procName. It
// blocks while the monitor is occupied and returns once the caller
// holds the monitor (or ErrAborted if the process was aborted while
// queued).
func (m *Monitor) Enter(p *proc.P, procName string) error {
	m.gate.RLock()
	m.mu.Lock()
	now := m.clk.Now()
	occupied := len(m.inside) > 0
	action := m.hooks.enterAction(p.ID(), procName, occupied)

	grant := action == EnterForceGrant ||
		(action == EnterDefault && !occupied && m.entryQ.Empty())
	if grant {
		m.inside[p.ID()] = insideInfo{proc: procName, since: now}
		m.record(event.Event{
			Type: event.Enter, Pid: p.ID(), Proc: procName,
			Flag: event.Completed, Time: now,
		})
		m.mu.Unlock()
		m.gate.RUnlock()
		return nil
	}

	m.record(event.Event{
		Type: event.Enter, Pid: p.ID(), Proc: procName,
		Flag: event.Blocked, Time: now,
	})
	if action != EnterDrop {
		m.entryQ.Push(p.ID(), procName, now)
		m.parked[p.ID()] = p
	}
	m.mu.Unlock()
	m.gate.RUnlock()

	// Park outside the gate so a frozen world never deadlocks on a
	// blocked process. A dropped process parks with no one to wake it:
	// that is fault I.a.2, resolvable only by runtime abort.
	if p.Park() == proc.Aborted {
		m.forget(p.ID())
		return ErrAborted
	}
	return nil
}

// Wait blocks the calling process on the named condition queue and —
// under the correct protocol — passes the monitor to the head of the
// entry queue or releases it. The caller must be inside the monitor.
func (m *Monitor) Wait(p *proc.P, procName, cond string) error {
	m.gate.RLock()
	m.mu.Lock()
	cq, ok := m.conds[cond]
	if !ok {
		m.mu.Unlock()
		m.gate.RUnlock()
		return fmt.Errorf("%w: %q on monitor %q", ErrUnknownCond, cond, m.spec.Name)
	}
	now := m.clk.Now()
	action := m.hooks.waitAction(p.ID(), procName, cond)
	m.record(event.Event{
		Type: event.Wait, Pid: p.ID(), Proc: procName, Cond: cond,
		Flag: event.Blocked, Time: now,
	})

	var wakes []*proc.P
	blockCaller := true
	switch action {
	case WaitNoBlock:
		// Fault I.b.1: queued on the condition yet keeps running inside.
		cq.Push(p.ID(), procName, now)
		blockCaller = false
	case WaitDrop:
		// Fault I.b.2: neither queued nor running; monitor handed off.
		delete(m.inside, p.ID())
		wakes = m.handoff(now, 1)
	case WaitNoHandoff:
		// Fault I.b.3: caller blocks but the entry queue is not served.
		cq.Push(p.ID(), procName, now)
		m.parked[p.ID()] = p
		delete(m.inside, p.ID())
	case WaitDoubleHandoff:
		// Fault I.b.5: two entry waiters resumed at once.
		cq.Push(p.ID(), procName, now)
		m.parked[p.ID()] = p
		delete(m.inside, p.ID())
		wakes = m.handoff(now, 2)
	case WaitKeepLock:
		// Fault I.b.6: caller blocks but the monitor is not released.
		cq.Push(p.ID(), procName, now)
		m.parked[p.ID()] = p
		// p stays in the inside set: the monitor is still "held".
	default:
		cq.Push(p.ID(), procName, now)
		m.parked[p.ID()] = p
		delete(m.inside, p.ID())
		wakes = m.handoff(now, 1)
	}
	m.mu.Unlock()
	m.gate.RUnlock()

	for _, w := range wakes {
		w.Unpark()
	}
	if !blockCaller {
		return nil
	}
	if p.Park() == proc.Aborted {
		m.forget(p.ID())
		return ErrAborted
	}
	return nil
}

// SignalExit signals the named condition (resuming its head waiter if
// any, else the head of the entry queue) and leaves the monitor — the
// combined primitive of §2. An empty cond is a pure Exit.
func (m *Monitor) SignalExit(p *proc.P, procName, cond string) error {
	m.gate.RLock()
	m.mu.Lock()
	var cq *queue.TimedFIFO
	if cond != "" {
		var ok bool
		cq, ok = m.conds[cond]
		if !ok {
			m.mu.Unlock()
			m.gate.RUnlock()
			return fmt.Errorf("%w: %q on monitor %q", ErrUnknownCond, cond, m.spec.Name)
		}
	}
	now := m.clk.Now()
	action := m.hooks.signalAction(p.ID(), procName, cond)

	var wakes []*proc.P
	flag := event.Blocked
	switch action {
	case SignalNoWake:
		// Fault I.c.1: monitor released, nobody resumed.
		delete(m.inside, p.ID())
	case SignalKeepLock:
		// Fault I.c.2: caller exits but the monitor is not released —
		// the stale occupancy blocks everyone.
	case SignalDoubleWake:
		// Fault I.c.3: a condition waiter and an entry waiter both run.
		if cq != nil && !cq.Empty() {
			if w, ok := cq.Pop(); ok {
				flag = event.Completed
				m.admit(w, now, &wakes)
			}
		}
		wakes = append(wakes, m.handoff(now, 1)...)
		delete(m.inside, p.ID())
	default:
		if cq != nil && !cq.Empty() {
			w, _ := cq.Pop()
			flag = event.Completed
			m.admit(w, now, &wakes)
		} else {
			wakes = m.handoff(now, 1)
		}
		delete(m.inside, p.ID())
	}

	m.record(event.Event{
		Type: event.SignalExit, Pid: p.ID(), Proc: procName, Cond: cond,
		Flag: flag, Time: now,
	})
	if m.spec.Kind == CommunicationCoordinator {
		switch procName {
		case m.spec.SendProc:
			m.resources--
		case m.spec.ReceiveProc:
			m.resources++
		}
	}
	m.mu.Unlock()
	m.gate.RUnlock()

	for _, w := range wakes {
		w.Unpark()
	}
	return nil
}

// Exit leaves the monitor without signalling any condition.
func (m *Monitor) Exit(p *proc.P, procName string) error {
	return m.SignalExit(p, procName, "")
}

// InjectBareEntry places the process inside the monitor without
// invoking the entry protocol and without emitting an event — fault
// I.a.4, "entry is not observed". It exists only as a fault-injection
// surface for the robustness experiment.
func (m *Monitor) InjectBareEntry(p *proc.P, procName string) {
	m.gate.RLock()
	m.mu.Lock()
	m.inside[p.ID()] = insideInfo{proc: procName, since: m.clk.Now()}
	m.mu.Unlock()
	m.gate.RUnlock()
}

// admit moves a dequeued waiter into the monitor and schedules its
// wake-up. Caller holds m.mu.
func (m *Monitor) admit(w queue.Waiter, now time.Time, wakes *[]*proc.P) {
	m.inside[w.Pid] = insideInfo{proc: w.Proc, since: now}
	if p := m.parked[w.Pid]; p != nil {
		delete(m.parked, w.Pid)
		*wakes = append(*wakes, p)
	}
}

// handoff pops up to n entry-queue waiters (skipping starved victims
// per hooks) and admits them. Caller holds m.mu.
func (m *Monitor) handoff(now time.Time, n int) []*proc.P {
	var wakes []*proc.P
	for ; n > 0; n-- {
		w, ok := m.popEntry()
		if !ok {
			break
		}
		m.admit(w, now, &wakes)
	}
	return wakes
}

// popEntry removes the first entry-queue waiter not vetoed by the
// SkipHandoff hook. Caller holds m.mu.
func (m *Monitor) popEntry() (queue.Waiter, bool) {
	for _, w := range m.entryQ.Snapshot() {
		if m.hooks.skip(w.Pid) {
			continue
		}
		return m.entryQ.Remove(w.Pid)
	}
	return queue.Waiter{}, false
}

// record appends an event to the history database (no-op when the
// monitor runs bare). Caller holds m.mu and the gate read lock, so
// event order is consistent with state changes.
func (m *Monitor) record(e event.Event) {
	if m.rec == nil {
		return
	}
	e.Monitor = m.spec.Name
	m.rec.Append(e)
}

// forget removes an aborted process from all bookkeeping so shutdown
// does not leave stale queue entries behind.
func (m *Monitor) forget(pid int64) {
	m.gate.RLock()
	m.mu.Lock()
	m.entryQ.Remove(pid)
	for _, cq := range m.conds {
		cq.Remove(pid)
	}
	delete(m.parked, pid)
	delete(m.inside, pid)
	m.mu.Unlock()
	m.gate.RUnlock()
}

// Reset forcibly reinitialises the monitor: every queued or waiting
// process is aborted (its blocked primitive returns ErrAborted), the
// queues and the inside set are cleared, and R# is restored to Rmax.
// Recovery policies (§5 future work) use it to restore normal operation
// after a detected fault. Reset alone is only checkpoint-safe against a
// stopped world — it does not coordinate with a detector's in-flight
// snapshot or drain of this monitor; the shard-local online path is
// Detector.RequestReset, which linearises the reset against checkpoints
// and calls ResetFrozen under its own freeze.
func (m *Monitor) Reset() {
	m.gate.RLock()
	parked := m.resetLocked()
	m.gate.RUnlock()
	for _, p := range parked {
		p.Abort()
	}
}

// ResetFrozen is Reset for a caller that already holds this monitor's
// freeze (the checkpoint gate's write lock): the gate is not
// re-acquired, so the reset lands atomically inside the caller's frozen
// window — between the freeze and the thaw no primitive can observe a
// half-reset monitor. It returns the processes that were parked on the
// monitor's queues; the caller must Abort them (Abort never blocks, so
// before or after Thaw both work — the woken processes unwind only once
// the monitor thaws).
func (m *Monitor) ResetFrozen() []*proc.P {
	return m.resetLocked()
}

// resetLocked clears the queues, the inside set and R#, and returns the
// previously parked processes for the caller to abort. The caller holds
// the gate (read side for Reset, write side for ResetFrozen); m.mu is
// taken here.
func (m *Monitor) resetLocked() []*proc.P {
	m.mu.Lock()
	parked := make([]*proc.P, 0, len(m.parked))
	for _, p := range m.parked {
		parked = append(parked, p)
	}
	m.parked = make(map[int64]*proc.P, 8)
	m.entryQ.Clear()
	for _, cq := range m.conds {
		cq.Clear()
	}
	m.inside = make(map[int64]insideInfo, 2)
	if m.spec.Kind == CommunicationCoordinator {
		m.resources = m.spec.Rmax
	}
	m.mu.Unlock()
	return parked
}

// Freeze stops the world for this monitor: it blocks until no primitive
// is mid-critical-section and prevents new ones from starting. The
// paper's checking routine freezes all monitored monitors, snapshots
// and drains, then Thaws.
func (m *Monitor) Freeze() { m.gate.Lock() }

// Thaw reverses Freeze.
func (m *Monitor) Thaw() { m.gate.Unlock() }

// Snapshot captures the actual scheduling state ⟨EQ, CQ[], R#⟩ plus the
// Running set. Call with the monitor frozen for a checkpoint-consistent
// view (calling it unfrozen is safe but racy by nature). The result
// shares no memory with the monitor: its slices and map are built
// fresh, so a caller may keep it across checkpoints without a Clone.
func (m *Monitor) Snapshot() state.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := state.Snapshot{
		Monitor:   m.spec.Name,
		At:        m.clk.Now(),
		CQ:        make(map[string][]state.QueueEntry, len(m.conds)),
		Resources: m.resources,
	}
	for _, w := range m.entryQ.Snapshot() {
		snap.EQ = append(snap.EQ, state.QueueEntry{Pid: w.Pid, Proc: w.Proc, Since: w.Since})
	}
	for c, cq := range m.conds {
		entries := make([]state.QueueEntry, 0, cq.Len())
		for _, w := range cq.Snapshot() {
			entries = append(entries, state.QueueEntry{Pid: w.Pid, Proc: w.Proc, Since: w.Since})
		}
		snap.CQ[c] = entries
	}
	for pid, info := range m.inside {
		snap.Running = append(snap.Running, state.RunningEntry{Pid: pid, Since: info.since})
	}
	return snap
}

// Test- and tool-facing accessors.

// InsideCount reports how many processes are inside the monitor.
func (m *Monitor) InsideCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inside)
}

// EntryLen reports the entry-queue length.
func (m *Monitor) EntryLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entryQ.Len()
}

// CondLen reports the length of condition queue cond (0 for unknown).
func (m *Monitor) CondLen(cond string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cq, ok := m.conds[cond]; ok {
		return cq.Len()
	}
	return 0
}

// Resources reports the current R# (free slots for a coordinator).
func (m *Monitor) Resources() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resources
}
