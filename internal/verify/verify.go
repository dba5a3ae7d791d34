// Package verify is the offline trace checker: it replays a recorded
// history through BOTH independent rule implementations — the
// full-trace FD-Rule checker (internal/rules) and the checking-list
// replay of the periodic algorithms (internal/checklists) — and reports
// their findings side by side. The paper argues the FD-Rules and the
// ST-Rules are equivalent (§3.3.2); Agreement makes that claim
// executable, and the cmd/montrace tool exposes it to users who want to
// re-check an exported trace.
package verify

import (
	"fmt"
	"time"

	"robustmon/internal/checklists"
	"robustmon/internal/event"
	"robustmon/internal/monitor"
	"robustmon/internal/rules"
	"robustmon/internal/state"
)

// Options parameterises an offline check.
type Options struct {
	// Specs declares the monitors appearing in the trace. Events of
	// undeclared monitors are an error.
	Specs []monitor.Spec
	// Tmax, Tio, Tlimit are the timer parameters (zero disables each).
	Tmax, Tio, Tlimit time.Duration
	// End is the instant the trace was cut; defaults to the timestamp of
	// the last event when zero.
	End time.Time
	// Final optionally supplies the actual final snapshot per monitor
	// for reconstruction-vs-reality comparison.
	Final map[string]state.Snapshot
}

// Result holds the checkers' findings for one monitor.
type Result struct {
	// Monitor names the monitor.
	Monitor string
	// FD are the violations from the FD-Rule full-trace checker.
	FD []rules.Violation
	// ST are the violations from the checking-list replay (one segment
	// spanning the whole trace, i.e. the T→∞ configuration).
	ST []rules.Violation
	// Literal are the violations from the literal-form FD-Rule
	// quantifiers over the reconstructed §3.1 event model. These rules
	// are necessary conditions only (weaker than FD/ST), so Literal may
	// be empty on a trace the other two flag; a literal finding on a
	// trace the others pass would indicate a checker bug.
	Literal []rules.Violation
}

// Clean reports whether no checker found a violation.
func (r Result) Clean() bool {
	return len(r.FD) == 0 && len(r.ST) == 0 && len(r.Literal) == 0
}

// Trace checks a recorded trace offline and returns one Result per
// declared monitor (in Specs order).
func Trace(trace event.Seq, opts Options) ([]Result, error) {
	if err := trace.Validate(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	declared := make(map[string]monitor.Spec, len(opts.Specs))
	for _, s := range opts.Specs {
		if _, dup := declared[s.Name]; dup {
			return nil, fmt.Errorf("verify: duplicate spec %q", s.Name)
		}
		declared[s.Name] = s
	}
	for _, e := range trace {
		if _, ok := declared[e.Monitor]; !ok {
			return nil, fmt.Errorf("verify: event %d on undeclared monitor %q", e.Seq, e.Monitor)
		}
	}
	end := opts.End
	if end.IsZero() && len(trace) > 0 {
		end = trace[len(trace)-1].Time
	}

	out := make([]Result, 0, len(opts.Specs))
	for _, spec := range opts.Specs {
		seg := trace.ByMonitor(spec.Name)
		res := Result{Monitor: spec.Name}

		// Checker 1: FD-Rules over the full trace.
		cfg := rules.Config{
			Spec: spec, Tmax: opts.Tmax, Tio: opts.Tio, Tlimit: opts.Tlimit, End: end,
		}
		if snap, ok := opts.Final[spec.Name]; ok {
			snapCopy := snap.Clone()
			cfg.Final = &snapCopy
		}
		res.FD = markPhase(rules.Check(seg, cfg))

		// Checker 2: the periodic algorithms run as one giant segment.
		lists := checklists.FromSnapshot(spec, emptySnapshot(spec), 0, 0)
		rl := checklists.NewRequestList(spec)
		var st []rules.Violation
		for i := range seg {
			lists.Apply(&seg[i])
			if spec.Kind == monitor.ResourceAllocator {
				st = append(st, rl.Apply(&seg[i])...)
			}
		}
		st = append(st, lists.Violations()...)
		if snap, ok := opts.Final[spec.Name]; ok {
			st = append(st, lists.CompareWith(snap)...)
		}
		if !end.IsZero() {
			st = append(st, lists.CheckTimers(end, opts.Tmax, opts.Tio)...)
			if spec.Kind == monitor.ResourceAllocator {
				st = append(st, rl.CheckTimers(end, opts.Tlimit)...)
			}
		}
		res.ST = markPhase(st)

		// Checker 3: the literal §3.2 quantifiers over the reconstructed
		// §3.1 event model.
		res.Literal = markPhase(rules.CheckLiteral(seg, spec.Name))
		out = append(out, res)
	}
	return out, nil
}

// Agreement reports whether the two checkers agree monitor by monitor
// on the question "is this trace faulty?". The paper's equivalence
// claim predicts they always do.
func Agreement(results []Result) bool {
	for _, r := range results {
		if (len(r.FD) == 0) != (len(r.ST) == 0) {
			return false
		}
	}
	return true
}

func markPhase(vs []rules.Violation) []rules.Violation {
	for i := range vs {
		vs[i].Phase = "offline"
	}
	return vs
}

func emptySnapshot(spec monitor.Spec) state.Snapshot {
	cq := make(map[string][]state.QueueEntry, len(spec.Conditions))
	for _, c := range spec.Conditions {
		cq[c] = nil
	}
	return state.Snapshot{Monitor: spec.Name, CQ: cq, Resources: spec.Rmax}
}
