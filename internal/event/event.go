// Package event defines the monitor scheduling events of the paper's
// history model (§3.1, simplified per §3.3.1).
//
// The run-time operation of a monitor is modelled as a finite sequence
// of scheduling events L = l1 l2 … ln drawn from
//
//	EVENTset = { Enter(Pid, Pname, flag),
//	             Wait(Pid, Pname, Cond),
//	             Signal-Exit(Pid, Pname, Cond, flag) }
//
// Flags follow the paper: for Enter, flag 1 means the process entered
// immediately and flag 0 means it blocked on the entry queue (a later
// resume emits no new event — the checker models resumption as a
// deletion from Enter-0-List). For Signal-Exit, flag 1 means a process
// waiting on the named condition queue was resumed, flag 0 means none
// was (the monitor passed to an entry-queue waiter or became free).
//
// Events carry a timestamp and a monotonically increasing sequence
// number assigned by the history database; the precedence relation <L
// of the paper is exactly the order of sequence numbers.
package event

import (
	"fmt"
	"time"
)

// Type discriminates the three scheduling events.
type Type int

// The three monitor primitives whose invocations are scheduling events.
const (
	Enter Type = iota + 1
	Wait
	SignalExit
)

// String returns the paper's name for the event type.
func (t Type) String() string {
	switch t {
	case Enter:
		return "Enter"
	case Wait:
		return "Wait"
	case SignalExit:
		return "Signal-Exit"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Valid reports whether t is one of the three defined event types.
func (t Type) Valid() bool { return t >= Enter && t <= SignalExit }

// Flag values for Enter events.
const (
	// Blocked marks an Enter that queued the caller on EQ, or a
	// Signal-Exit that resumed no condition waiter.
	Blocked = 0
	// Completed marks an Enter that acquired the monitor immediately, or
	// a Signal-Exit that resumed a condition waiter.
	Completed = 1
)

// Event is one scheduling event l_i.
type Event struct {
	// Seq is the global position of this event in L; assigned by the
	// history database, strictly increasing. Seq numbering starts at 1.
	Seq int64 `json:"seq"`
	// Monitor names the monitor whose primitive was invoked.
	Monitor string `json:"monitor"`
	// Type is the primitive invoked.
	Type Type `json:"type"`
	// Pid identifies the invoking process.
	Pid int64 `json:"pid"`
	// Proc is Pname — the monitor procedure within which the primitive
	// ran (e.g. "Send", "Acquire").
	Proc string `json:"proc"`
	// Cond names the condition queue for Wait and Signal-Exit events;
	// empty for Enter, and empty for a pure Exit (Signal-Exit that
	// signals no condition).
	Cond string `json:"cond,omitempty"`
	// Flag is the completion flag (see Blocked, Completed). Meaningful
	// for Enter and Signal-Exit; always 0 for Wait in the simplified
	// event set.
	Flag int `json:"flag"`
	// Time is the instant the event occurred on the run's clock.
	Time time.Time `json:"time"`
}

// String renders the event in the paper's notation, e.g.
// "Enter(P3, Send, 1)" or "Signal-Exit(P3, Send, notEmpty, 0)".
func (e Event) String() string {
	switch e.Type {
	case Enter:
		return fmt.Sprintf("Enter(P%d, %s, %d)", e.Pid, e.Proc, e.Flag)
	case Wait:
		return fmt.Sprintf("Wait(P%d, %s, %s)", e.Pid, e.Proc, e.Cond)
	case SignalExit:
		return fmt.Sprintf("Signal-Exit(P%d, %s, %s, %d)", e.Pid, e.Proc, e.Cond, e.Flag)
	default:
		return fmt.Sprintf("UnknownEvent(P%d, %s)", e.Pid, e.Proc)
	}
}

// Validate reports a non-nil error when the event is structurally
// malformed (unknown type, missing pid, a Wait without a condition, or
// a flag outside {0,1}).
func (e Event) Validate() error {
	if !e.Type.Valid() {
		return fmt.Errorf("event %d: invalid type %d", e.Seq, int(e.Type))
	}
	if e.Pid == 0 {
		return fmt.Errorf("event %d: zero pid", e.Seq)
	}
	if e.Flag != Blocked && e.Flag != Completed {
		return fmt.Errorf("event %d: flag %d outside {0,1}", e.Seq, e.Flag)
	}
	if e.Type == Wait && e.Cond == "" {
		return fmt.Errorf("event %d: Wait without condition", e.Seq)
	}
	if e.Type == Enter && e.Cond != "" {
		return fmt.Errorf("event %d: Enter with condition %q", e.Seq, e.Cond)
	}
	return nil
}
