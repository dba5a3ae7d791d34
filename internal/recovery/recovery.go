// Package recovery implements the paper's second future-work extension
// (§5): "in order to make the monitor construct fault-tolerant, error
// recovery mechanisms should be incorporated into the model to handle
// the faults detected by recovering the errors."
//
// A Manager receives violations (wire Handle into detect.Config's
// OnViolation and the real-time checker's callback) and applies a
// policy: report only, reset the offending monitor, or abort the
// offending process. Every action is logged for inspection
// (report.RenderRecovery formats the log).
//
// # Shard-aware reset
//
// Calling Monitor.Reset directly is only safe against a stopped world:
// it does not coordinate with a detector's in-flight snapshot, drain
// or batched replay of the monitor. Attach the detector itself via
// SetResetter (detect.Detector implements Resetter) and the
// ResetMonitor policy becomes shard-local and online: the reset is
// linearised against checkpoints by the detector, freezes only the
// offending monitor, discards its unchecked history, reseeds its
// checking state, and emits a recovery marker into the
// export stream — while every other monitor keeps running. Without a
// resetter the manager falls back to the direct Reset, preserving the
// pre-shard-aware behaviour for callers that stop the world themselves.
package recovery

import (
	"fmt"
	"sync"
	"time"

	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// Policy selects the reaction to a detected violation.
type Policy int

// The recovery policies.
const (
	// ReportOnly records the violation and takes no action — the bare
	// detection behaviour of the paper's prototype.
	ReportOnly Policy = iota + 1
	// ResetMonitor reinitialises the monitor the violation occurred on:
	// queues cleared, blocked processes aborted, R# restored. With a
	// Resetter attached the reset is shard-local and online; without
	// one it calls Monitor.Reset directly (world-stop callers only).
	ResetMonitor
	// AbortOffender aborts the process the violation names — but only
	// when it names one and that process is currently blocked (parked
	// on a monitor queue). A named process that is running is left
	// alone and the violation is logged report-only: delivering an
	// abort to a running process would not stop it now, it would poison
	// its next blocking primitive at some arbitrary later point, which
	// is worse than doing nothing visibly.
	AbortOffender
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case ReportOnly:
		return "report-only"
	case ResetMonitor:
		return "reset-monitor"
	case AbortOffender:
		return "abort-offender"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Resetter performs shard-local online monitor resets.
// detect.Detector implements it (RequestReset): the reset is
// linearised against in-flight checkpoints and applied with only the
// offending monitor frozen. The interface lives here so recovery never
// imports detect.
type Resetter interface {
	// RequestReset schedules a localized reset of the named monitor,
	// triggered by the given violation, and reports whether the monitor
	// is covered by the resetter.
	RequestReset(monitor string, v rules.Violation) bool
}

// Action records one recovery step.
type Action struct {
	// At is when the action was taken.
	At time.Time
	// Violation is the triggering violation.
	Violation rules.Violation
	// Taken describes what the manager did.
	Taken string
}

// Manager applies a recovery policy to incoming violations.
// Construct with NewManager; safe for concurrent use.
type Manager struct {
	policy  Policy
	runtime *proc.Runtime

	mu       sync.Mutex
	resetter Resetter
	monitors map[string]*monitor.Monitor
	log      []Action
	handled  map[string]bool // dedup: one recovery per (rule, monitor, pid)
}

// NewManager builds a manager over the given monitors — the set the
// ResetMonitor policy is allowed to reset; violations on other
// monitors are logged report-only. runtime may be nil unless the
// AbortOffender policy is used.
func NewManager(policy Policy, runtime *proc.Runtime, mons ...*monitor.Monitor) *Manager {
	m := &Manager{
		policy:   policy,
		runtime:  runtime,
		monitors: make(map[string]*monitor.Monitor, len(mons)),
		handled:  make(map[string]bool),
	}
	for _, mon := range mons {
		m.monitors[mon.Name()] = mon
	}
	return m
}

// Policy returns the configured policy.
func (m *Manager) Policy() Policy { return m.policy }

// SetResetter routes the ResetMonitor policy through a shard-local
// online resetter — pass the detect.Detector the monitors are checked
// by. The manager still only resets the monitors it was constructed
// over, whatever wider set the resetter covers.
func (m *Manager) SetResetter(r Resetter) {
	m.mu.Lock()
	m.resetter = r
	m.mu.Unlock()
}

// Handle reacts to one violation according to the policy. It is safe to
// pass as a detector/realtime callback: the shard-local reset path
// never blocks on checkpoint progress (the detector applies it at a
// checkpoint boundary), so Handle can be called from inside a
// checkpoint or from a monitor's own critical section.
func (m *Manager) Handle(v rules.Violation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := fmt.Sprintf("%s|%s|%d", v.Rule, v.Monitor, v.Pid)
	if m.handled[key] {
		return
	}
	m.handled[key] = true

	taken := "reported"
	switch m.policy {
	case ResetMonitor:
		switch mon, ok := m.monitors[v.Monitor]; {
		case !ok:
			taken = "reported (monitor unknown, no reset)"
		case m.resetter != nil && m.resetter.RequestReset(v.Monitor, v):
			taken = "monitor reset (shard-local)"
		default:
			// No resetter (or one that does not cover this monitor):
			// the direct world-stop-only reset.
			mon.Reset()
			taken = "monitor reset"
		}
	case AbortOffender:
		taken = "reported (no offender named)"
		if v.Pid != 0 && m.runtime != nil {
			switch p, ok := m.runtime.Get(v.Pid); {
			case !ok:
				taken = fmt.Sprintf("reported (P%d unknown, no abort)", v.Pid)
			case p.Status() != proc.Parked:
				// See the AbortOffender policy doc: aborting a process
				// that is not blocked would only poison its next Park.
				taken = fmt.Sprintf("reported (P%d not blocked, no abort)", v.Pid)
			default:
				p.Abort()
				taken = fmt.Sprintf("aborted P%d", v.Pid)
			}
		}
	}
	m.log = append(m.log, Action{At: v.At, Violation: v, Taken: taken})
}

// Log returns the actions taken so far.
func (m *Manager) Log() []Action {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Action(nil), m.log...)
}
