// Package state models the scheduling state of a monitor (§3.1).
//
// A scheduling state is the 3-tuple ⟨EQ, CQ[], R#⟩ — the external
// (entry) waiting queue, the array of condition queues, and the number
// of currently available resources. Following §3.3.1, a checkpoint
// snapshot additionally records Running, the set of processes inside
// the monitor at checking time (a singleton under correct operation;
// we keep a set so that mutual-exclusion violations are observable).
package state

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// QueueEntry is one process on a snapshot queue, with its enqueue
// instant so the detector can evaluate Timer(Pid).
type QueueEntry struct {
	Pid   int64     `json:"pid"`
	Proc  string    `json:"proc"`
	Since time.Time `json:"since"`
}

// RunningEntry is one process inside the monitor at snapshot time, with
// the instant it entered (for Tmax).
type RunningEntry struct {
	Pid   int64     `json:"pid"`
	Since time.Time `json:"since"`
}

// Snapshot is the scheduling state of one monitor at a checkpoint.
type Snapshot struct {
	// Monitor names the monitor.
	Monitor string `json:"monitor"`
	// At is the checkpoint instant.
	At time.Time `json:"at"`
	// EQ is the entry queue, head first.
	EQ []QueueEntry `json:"eq"`
	// CQ maps condition names to their queues, head first.
	CQ map[string][]QueueEntry `json:"cq"`
	// Running is the set of processes inside the monitor (not waiting on
	// any queue). Correct operation keeps len(Running) ≤ 1.
	Running []RunningEntry `json:"running"`
	// Resources is R#, the number of available resources; meaningful for
	// communication-coordinator monitors (free buffer slots).
	Resources int `json:"resources"`
	// LastSeq is the sequence number of the last event recorded at or
	// before this snapshot; the next checking segment is (LastSeq, next].
	LastSeq int64 `json:"lastSeq"`
}

// EQPids returns the entry-queue pids, head first.
func (s Snapshot) EQPids() []int64 { return entryPids(s.EQ) }

// CQPids returns the pids of condition queue cond, head first.
func (s Snapshot) CQPids(cond string) []int64 { return entryPids(s.CQ[cond]) }

// RunningPids returns the pids inside the monitor, in recorded order.
func (s Snapshot) RunningPids() []int64 {
	out := make([]int64, len(s.Running))
	for i, r := range s.Running {
		out[i] = r.Pid
	}
	return out
}

// CondNames returns the condition names in the snapshot, sorted.
func (s Snapshot) CondNames() []string {
	names := make([]string, 0, len(s.CQ))
	for c := range s.CQ {
		names = append(names, c)
	}
	sort.Strings(names)
	return names
}

// Clone returns a deep copy, for a holder that keeps a snapshot it was
// handed and must not share its slices with the caller's (the history
// database's retained states).
func (s Snapshot) Clone() Snapshot {
	out := s
	out.EQ = append([]QueueEntry(nil), s.EQ...)
	out.Running = append([]RunningEntry(nil), s.Running...)
	out.CQ = make(map[string][]QueueEntry, len(s.CQ))
	for c, q := range s.CQ {
		out.CQ[c] = append([]QueueEntry(nil), q...)
	}
	return out
}

// String renders the paper's ⟨EQ, CQ[], R#⟩ tuple plus Running.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s⟨EQ=%v, CQ{", s.Monitor, s.EQPids())
	for i, c := range s.CondNames() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", c, s.CQPids(c))
	}
	fmt.Fprintf(&b, "}, R#=%d⟩ Running=%v", s.Resources, s.RunningPids())
	return b.String()
}

func entryPids(q []QueueEntry) []int64 {
	out := make([]int64, len(q))
	for i, e := range q {
		out[i] = e.Pid
	}
	return out
}

// Diff describes how two snapshots disagree, list by list. The
// detector uses it to turn a Step-2 comparison failure into a readable
// report.
type Diff struct {
	Field string // "EQ", "CQ[c]", "Running", "Resources"
	Got   string // reconstructed (from checking lists)
	Want  string // actual (from the snapshot)
}

// CompareLists reports the differences between reconstructed pid lists
// and the snapshot's actual queues. resources is the reconstructed R#;
// pass wantResources=false for monitor kinds without resource tracking.
func (s Snapshot) CompareLists(eq []int64, cq map[string][]int64, running []int64, resources int, wantResources bool) []Diff {
	var diffs []Diff
	if !equalPids(eq, s.EQPids()) {
		diffs = append(diffs, Diff{Field: "EQ", Got: fmt.Sprint(eq), Want: fmt.Sprint(s.EQPids())})
	}
	conds := make(map[string]bool, len(cq)+len(s.CQ))
	for c := range cq {
		conds[c] = true
	}
	for c := range s.CQ {
		conds[c] = true
	}
	names := make([]string, 0, len(conds))
	for c := range conds {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		if !equalPids(cq[c], s.CQPids(c)) {
			diffs = append(diffs, Diff{
				Field: "CQ[" + c + "]",
				Got:   fmt.Sprint(cq[c]),
				Want:  fmt.Sprint(s.CQPids(c)),
			})
		}
	}
	if !samePidSet(running, s.RunningPids()) {
		diffs = append(diffs, Diff{Field: "Running", Got: fmt.Sprint(running), Want: fmt.Sprint(s.RunningPids())})
	}
	if wantResources && resources != s.Resources {
		diffs = append(diffs, Diff{Field: "Resources", Got: fmt.Sprint(resources), Want: fmt.Sprint(s.Resources)})
	}
	return diffs
}

func equalPids(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// samePidSet compares ignoring order: the Running set has no meaningful
// internal order (a correct monitor holds at most one element anyway).
func samePidSet(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int64(nil), a...)
	bs := append([]int64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
