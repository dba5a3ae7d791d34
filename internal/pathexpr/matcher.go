package pathexpr

import (
	"fmt"
	"strings"
)

// OrderError reports a procedure call that violates the declared
// partial order — the run-time face of the user-process-level faults
// (§2.2 III.a/III.c).
type OrderError struct {
	// Path is the canonical rendering of the violated declaration.
	Path string
	// Call is the offending procedure name.
	Call string
	// History is the calls accepted since the matcher last completed a
	// traversal, in order.
	History []string
	// Expected lists the procedure names that would have been legal.
	Expected []string
}

// Error implements the error interface.
func (e *OrderError) Error() string {
	hist := "start"
	if len(e.History) > 0 {
		hist = strings.Join(e.History, " ")
	}
	exp := "nothing (path exhausted)"
	if len(e.Expected) > 0 {
		exp = strings.Join(e.Expected, " | ")
	}
	return fmt.Sprintf("pathexpr: call %q violates %q after [%s]; expected %s",
		e.Call, e.Path, hist, exp)
}

// Matcher tracks one process's position in a path expression. Each
// process gets its own Matcher because the paper's ordering constraint
// is per process ("a procedure call to Release cannot precede a
// procedure call to Request by the same process"). A Matcher is not
// safe for concurrent use.
type Matcher struct {
	path  *Path
	state int
	// history holds the calls since the last completed traversal, so a
	// process that keeps completing traversals never grows it.
	history []string
}

// NewMatcher returns a matcher positioned at the start of the path.
func (p *Path) NewMatcher() *Matcher {
	return &Matcher{path: p}
}

// Step consumes one procedure call. Calls to procedures the path does
// not mention are ignored (the declared order is a partial order).
// A violating call returns an *OrderError and leaves the matcher state
// unchanged, so detection can continue past the first fault.
func (m *Matcher) Step(call string) error {
	if !m.path.Mentions(call) {
		return nil
	}
	next := m.path.dfa.step(m.state, call)
	if next < 0 {
		return &OrderError{
			Path:     m.path.String(),
			Call:     call,
			History:  append([]string(nil), m.history...),
			Expected: m.path.dfa.expected(m.state),
		}
	}
	m.state = next
	if m.path.dfa.accepting[next] {
		m.history = m.history[:0]
	} else {
		m.history = append(m.history, call)
	}
	return nil
}

// AtCycleBoundary reports whether the calls consumed so far form a
// whole number of path traversals — i.e. the process holds no pending
// obligation (e.g. an Acquire without its Release).
func (m *Matcher) AtCycleBoundary() bool {
	return m.path.dfa.accepting[m.state]
}

// Expected returns the procedure names that are legal next calls.
func (m *Matcher) Expected() []string {
	return m.path.dfa.expected(m.state)
}

// Reset returns the matcher to the start of the path and clears the
// history (used by recovery policies after a monitor reset).
func (m *Matcher) Reset() {
	m.state = 0
	m.history = nil
}

// Accepts reports whether the whole word (a full call string) is a
// valid sequence of complete traversals of p. It is a convenience for
// tests and offline checking.
func (p *Path) Accepts(word []string) bool {
	s := 0
	for _, sym := range word {
		s = p.dfa.step(s, sym)
		if s < 0 {
			return false
		}
	}
	return p.dfa.accepting[s]
}

// ValidPrefix reports whether the word can be extended to a valid call
// string (every proper run-time history must satisfy this).
func (p *Path) ValidPrefix(word []string) bool {
	s := 0
	for _, sym := range word {
		s = p.dfa.step(s, sym)
		if s < 0 {
			return false
		}
	}
	return true
}
