// Package proc is the process substrate under the monitors.
//
// The paper's model is a multiprogramming system of user processes
// invoking monitor procedures. To reproduce implementation-level
// faults (a monitor that loses a wake-up, resumes two processes at
// once, or never releases itself) the blocking behaviour must be under
// the library's control, not the Go runtime's: a Process blocks by
// parking on its own wake channel and is resumed explicitly by the
// monitor when its turn arrives. One Process is bound to one goroutine
// spawned through a Runtime, which also captures panics and records the
// outcome of every process (needed for the internal-termination fault,
// §2.2 I.c.4).
package proc

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Status describes what a process is currently doing.
type Status int32

// Process life-cycle states.
const (
	// Ready means spawned and runnable (not blocked in a monitor).
	Ready Status = iota + 1
	// Parked means blocked on a monitor queue awaiting Unpark.
	Parked
	// Done means the process body returned normally.
	Done
	// Panicked means the process body panicked; the Runtime recovered
	// and recorded the panic value.
	Panicked
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Ready:
		return "ready"
	case Parked:
		return "parked"
	case Done:
		return "done"
	case Panicked:
		return "panicked"
	default:
		return fmt.Sprintf("Status(%d)", int32(s))
	}
}

// ParkResult tells a parked process why it was woken.
type ParkResult int

// Outcomes of Park.
const (
	// Resumed means the monitor granted the process the resource it was
	// waiting for; it now owns the monitor again.
	Resumed ParkResult = iota + 1
	// Aborted means the runtime is shutting down (or a recovery policy
	// evicted the process); the caller must unwind without touching the
	// monitor.
	Aborted
)

// P is one user process.
type P struct {
	id     int64
	name   string
	status atomic.Int32

	// wake delivers at most one pending wake-up. Capacity 1 so an
	// Unpark that races ahead of Park is not lost (the classic lost
	// wake-up we must never produce ourselves - unless injected at the
	// monitor layer, where the detector can see it).
	wake chan ParkResult
	// aborting is the runtime's AbortAll flag.
	aborting *atomic.Bool
}

// ID returns the process identifier (Pid in the paper's notation).
func (p *P) ID() int64 { return p.id }

// Name returns the human-readable process name.
func (p *P) Name() string { return p.name }

// Status returns the current life-cycle state.
func (p *P) Status() Status { return Status(p.status.Load()) }

// Park blocks the calling goroutine until Unpark or Abort. Only the
// goroutine bound to this process may call Park. Once its runtime's
// AbortAll has begun, Park does not block: it returns a wake-up already
// pending, else Aborted.
func (p *P) Park() ParkResult {
	p.status.Store(int32(Parked))
	var r ParkResult
	if p.aborting.Load() {
		// AbortAll's scan may have missed this process: it stored
		// Parked only now. Both are sequentially consistent atomics, so
		// either the scan saw Parked or this load sees the flag.
		select {
		case r = <-p.wake:
		default:
			r = Aborted
		}
	} else {
		r = <-p.wake
	}
	p.status.Store(int32(Ready))
	return r
}

// Unpark resumes a parked process normally. At most one wake-up is
// buffered; a second Unpark before the process parks again would block,
// which would indicate a protocol bug in the caller — monitors only
// wake processes they just dequeued.
func (p *P) Unpark() { p.wake <- Resumed }

// Abort resumes a parked process with the Aborted result. Non-blocking:
// if a wake-up is already pending the abort is dropped (the process is
// being resumed anyway and will terminate through its body).
func (p *P) Abort() {
	select {
	case p.wake <- Aborted:
	default:
	}
}

// String renders "P<id>(<name>)".
func (p *P) String() string { return fmt.Sprintf("P%d(%s)", p.id, p.name) }

// Outcome records how a process finished.
type Outcome struct {
	Pid int64
	// Err is nil for a normal return; for a panic it wraps the panic
	// value.
	Err error
}

// Runtime spawns and tracks processes. The zero value is not usable;
// construct with NewRuntime.
type Runtime struct {
	mu       sync.Mutex
	nextPid  int64
	procs    map[int64]*P
	results  map[int64]Outcome
	wg       sync.WaitGroup
	aborting atomic.Bool // set by AbortAll, never cleared
}

// NewRuntime returns an empty process runtime.
func NewRuntime() *Runtime {
	return &Runtime{
		procs:   make(map[int64]*P),
		results: make(map[int64]Outcome),
	}
}

// Spawn starts a new process executing body on its own goroutine and
// returns it. Pids are assigned sequentially from 1. The body's panic,
// if any, is recovered and recorded as the process outcome.
func (r *Runtime) Spawn(name string, body func(*P)) *P {
	r.mu.Lock()
	r.nextPid++
	p := &P{
		id:       r.nextPid,
		name:     name,
		wake:     make(chan ParkResult, 1),
		aborting: &r.aborting,
	}
	p.status.Store(int32(Ready))
	r.procs[p.id] = p
	r.mu.Unlock()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			if v := recover(); v != nil {
				p.status.Store(int32(Panicked))
				r.record(p.id, fmt.Errorf("proc: %s panicked: %v", p, v))
				return
			}
			p.status.Store(int32(Done))
			r.record(p.id, nil)
		}()
		body(p)
	}()
	return p
}

func (r *Runtime) record(pid int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results[pid] = Outcome{Pid: pid, Err: err}
}

// Join blocks until every spawned process has finished. Call AbortAll
// first if some processes may be parked forever (e.g. after a
// lost-process fault injection).
func (r *Runtime) Join() {
	r.wg.Wait()
}

// AbortAll delivers an abort wake-up to every currently parked process
// so Join can complete even after wake-ups were deliberately lost. The
// abort is sticky: a process of this runtime that parks afterwards —
// one the scan found still running towards its Park — returns from
// Park at once, with Aborted unless a wake-up was already pending.
func (r *Runtime) AbortAll() {
	r.aborting.Store(true)
	r.mu.Lock()
	procs := make([]*P, 0, len(r.procs))
	for _, p := range r.procs {
		procs = append(procs, p)
	}
	r.mu.Unlock()
	for _, p := range procs {
		if p.Status() == Parked {
			p.Abort()
		}
	}
}

// Outcome returns the recorded outcome for pid; ok is false while the
// process is still running (or for an unknown pid).
func (r *Runtime) Outcome(pid int64) (Outcome, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.results[pid]
	return o, ok
}

// Get returns the process with the given pid, if it was spawned here.
func (r *Runtime) Get(pid int64) (*P, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.procs[pid]
	return p, ok
}
