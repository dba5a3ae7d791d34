// Package obsrules closes the self-observability loop: a threshold-
// rule engine over obs registry snapshots. PR 7 gave the pipeline eyes
// (internal/obs, health records in the WAL) but they were passive —
// nothing reacted when the drop counters climbed or checkpoint p99
// blew past budget. An Engine evaluates declarative rules against
// periodic snapshots: absolute ceilings on counters, gauges and
// histogram quantiles, and delta/slope rules over counters between
// snapshots, with per-rule hysteresis (fire-after-K, clear-after-K) so
// a flapping series raises one alert per episode, not one per scrape.
//
// The engine is deliberately snapshot-driven, not handle-driven: it
// evaluates plain obs.Snapshot values, so the same rules run against a
// live registry inside a detector (detect.Config.Rules, at health-
// cadence checkpoints) and against decoded health records from a WAL
// or a fleet collector (moncollect's per-origin staleness rules).
// Evaluation allocates nothing on the no-fire path — TestEvalNoFireAllocs
// pins that, and BenchmarkEval times it — so watching the watcher stays
// off the hot path, the same discipline the detectEr-overheads frame
// demands of every other layer.
//
// A transition (fire or clear) produces an Alert. Downstream the
// detector turns firing alerts into synthetic meta-violations through
// the ordinary report path, persists every alert as a WAL record
// (export record kind 4) so montrace shows pipeline degradation
// alongside application faults, and — when Rule.ResetMonitor is set —
// drives a shard-local RequestReset: the detector healing itself.
package obsrules

import (
	"fmt"
	"time"

	"robustmon/internal/obs"
)

// Rule is one declarative threshold over a registry series.
type Rule struct {
	// Name identifies the rule in alerts, meta-violations and logs.
	// Required, unique within an engine.
	Name string
	// Metric names the series to watch: a counter, a gauge, or (with
	// Quantile) a histogram. A snapshot that lacks the metric counts as
	// not breaching — an idle pipeline that never registered a series
	// must not fire the rule watching it.
	Metric string
	// Quantile, when > 0, evaluates that quantile of a histogram named
	// Metric (e.g. 0.99 over detect_check_ns) instead of a scalar.
	Quantile float64
	// Rate, when set, evaluates the per-second change of the series
	// between consecutive snapshots instead of its absolute value — the
	// slope rule for monotonic counters (e.g. export_dropped_*_total).
	// The first snapshot an engine sees has no predecessor, so rate
	// rules skip it. Incompatible with Quantile.
	Rate bool
	// Ceiling is the threshold: the rule breaches when the observed
	// value is strictly greater.
	Ceiling float64
	// FireAfter is how many consecutive breaching evaluations arm the
	// rule before it fires (hysteresis; default 1 — fire on the first
	// breach).
	FireAfter int
	// ClearAfter is how many consecutive non-breaching evaluations a
	// firing rule needs before it clears (default 1).
	ClearAfter int
	// ResetMonitor, when set, asks the detector hosting this rule to
	// apply a shard-local online reset of the named monitor each time
	// the rule fires — self-healing for rules whose breach a reset can
	// actually relieve (a monitor whose backlog stalls checkpoints).
	// Ignored outside a detector.
	ResetMonitor string
}

// Alert is one rule transition: Firing true when the rule crossed
// into the firing state, false when it cleared. Alerts are what the
// export pipeline persists (record kind 4) and what the collector's
// fleet rules emit; Origin is empty for in-process rules and names the
// producer for fleet-level ones.
type Alert struct {
	// At is the evaluation instant (UTC on the wire).
	At time.Time
	// Seq is the global sequence horizon of the snapshot evaluated —
	// what positions the alert inside the trace, exactly like a health
	// record's horizon.
	Seq int64
	// Rule is the transitioning rule's name.
	Rule string
	// Metric is the watched series.
	Metric string
	// Value is the observed value at the transition (for a clear: the
	// value that cleared it).
	Value float64
	// Ceiling echoes the rule's threshold.
	Ceiling float64
	// Firing is true for a fire transition, false for a clear.
	Firing bool
	// Origin names the producer a fleet-level rule judged ("" for
	// in-process rules).
	Origin string
}

// String renders "FIRED rule (metric=value > ceiling)" or the CLEARED
// equivalent.
func (a Alert) String() string {
	verb, cmp := "FIRED", ">"
	if !a.Firing {
		verb, cmp = "CLEARED", "<="
	}
	origin := ""
	if a.Origin != "" {
		origin = fmt.Sprintf(" origin=%s", a.Origin)
	}
	return fmt.Sprintf("%s %s%s (%s=%g %s %g)", verb, a.Rule, origin, a.Metric, a.Value, cmp, a.Ceiling)
}

// ruleState is one rule's hysteresis state: consecutive breach and
// clear streaks, and whether the rule is currently firing.
type ruleState struct {
	breaches int
	clears   int
	firing   bool
}

// Engine evaluates a rule set against successive snapshots, carrying
// per-rule hysteresis state between them. Construct with New; Eval is
// meant to be driven by one goroutine (the detector calls it under its
// checkpoint lock; the collector from its fleet ticker).
type Engine struct {
	rules []Rule
	state []ruleState

	prev    obs.Snapshot
	prevAt  time.Time
	hasPrev bool

	// fired/cleared count transitions; firing gauges how many rules
	// are currently in the firing state. All nil-safe, so an engine
	// without a registry costs nothing extra.
	fired   *obs.Counter
	cleared *obs.Counter
	firing  *obs.Gauge
}

// New validates the rules and returns an engine. reg, when non-nil,
// instruments the engine (obs_rule_fired_total, obs_rule_cleared_total
// and the obs_rules_firing gauge) — pass the same registry the rules
// watch and the engine's own activity lands in the next snapshot like
// any other series.
func New(reg *obs.Registry, rules ...Rule) (*Engine, error) {
	e := &Engine{
		fired:   reg.Counter("obs_rule_fired_total"),
		cleared: reg.Counter("obs_rule_cleared_total"),
		firing:  reg.Gauge("obs_rules_firing"),
	}
	for _, r := range rules {
		if err := e.Add(r); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Add appends one rule with fresh hysteresis state; existing rules'
// state is untouched, which is what lets a fleet collector grow its
// per-origin staleness rules as origins appear.
func (e *Engine) Add(r Rule) error {
	if r.Name == "" {
		return fmt.Errorf("obsrules: rule with empty name")
	}
	if r.Metric == "" {
		return fmt.Errorf("obsrules: rule %q has no metric", r.Name)
	}
	if r.Rate && r.Quantile > 0 {
		return fmt.Errorf("obsrules: rule %q sets both Rate and Quantile", r.Name)
	}
	for _, have := range e.rules {
		if have.Name == r.Name {
			return fmt.Errorf("obsrules: duplicate rule %q", r.Name)
		}
	}
	if r.FireAfter <= 0 {
		r.FireAfter = 1
	}
	if r.ClearAfter <= 0 {
		r.ClearAfter = 1
	}
	e.rules = append(e.rules, r)
	e.state = append(e.state, ruleState{})
	return nil
}

// Rules returns the engine's rule set (shared backing array — treat as
// read-only). The detector uses it to map a firing alert back to its
// rule's ResetMonitor.
func (e *Engine) Rules() []Rule { return e.rules }

// Eval evaluates every rule against one snapshot, appending an Alert
// to dst for each transition (fire or clear) and returning the slice.
// at and seq stamp the alerts; the caller passes the snapshot's
// capture instant and sequence horizon. When nothing transitions —
// the overwhelmingly common case — Eval performs no allocation, so a
// detector can run it at every health checkpoint for the cost of a
// few linear scans over the snapshot's sorted sections
// (TestEvalNoFireAllocs pins this). The snapshot is retained until the
// next Eval (rate rules difference against it) and must not be mutated
// by the caller.
func (e *Engine) Eval(dst []Alert, at time.Time, seq int64, s obs.Snapshot) []Alert {
	for i := range e.rules {
		r := &e.rules[i]
		st := &e.state[i]
		value, ok := e.observe(r, at, s)
		if !ok {
			// Unevaluable this round (a rate rule's first snapshot):
			// leave the hysteresis state exactly as it was.
			continue
		}
		if value > r.Ceiling {
			st.breaches++
			st.clears = 0
			if !st.firing && st.breaches >= r.FireAfter {
				st.firing = true
				e.fired.Inc()
				e.firing.Add(1)
				dst = append(dst, e.alert(r, at, seq, value, true))
			}
		} else {
			st.clears++
			st.breaches = 0
			if st.firing && st.clears >= r.ClearAfter {
				st.firing = false
				e.cleared.Inc()
				e.firing.Add(-1)
				dst = append(dst, e.alert(r, at, seq, value, false))
			}
		}
	}
	e.prev = s
	e.prevAt = at
	e.hasPrev = true
	return dst
}

// alert builds one transition alert.
func (e *Engine) alert(r *Rule, at time.Time, seq int64, value float64, firing bool) Alert {
	return Alert{
		At:      at,
		Seq:     seq,
		Rule:    r.Name,
		Metric:  r.Metric,
		Value:   value,
		Ceiling: r.Ceiling,
		Firing:  firing,
	}
}

// observe resolves one rule's current value from the snapshot. ok is
// false only when the rule cannot be evaluated at all this round (a
// rate rule with no previous snapshot, or no measurable elapsed time);
// a missing metric observes as zero — not breaching — because an idle
// pipeline that never registered the series must not fire.
func (e *Engine) observe(r *Rule, at time.Time, s obs.Snapshot) (float64, bool) {
	if r.Quantile > 0 {
		h, ok := s.Histogram(r.Metric)
		if !ok {
			return 0, true
		}
		return h.Quantile(r.Quantile), true
	}
	cur, _ := scalar(s, r.Metric)
	if !r.Rate {
		return float64(cur), true
	}
	if !e.hasPrev {
		return 0, false
	}
	elapsed := at.Sub(e.prevAt).Seconds()
	if elapsed <= 0 {
		return 0, false
	}
	prev, _ := scalar(e.prev, r.Metric)
	return float64(cur-prev) / elapsed, true
}

// scalar looks the metric up as a counter first, then a gauge.
func scalar(s obs.Snapshot, name string) (int64, bool) {
	if v, ok := s.Counter(name); ok {
		return v, true
	}
	return s.Gauge(name)
}

// Firing reports how many rules are currently in the firing state.
func (e *Engine) Firing() int {
	n := 0
	for _, st := range e.state {
		if st.firing {
			n++
		}
	}
	return n
}
