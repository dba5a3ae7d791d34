package detect

import (
	"time"

	"robustmon/internal/obs"
	"robustmon/internal/rules"
)

// Detector self-observability. Config.Obs instruments the checkpoint
// pipeline on an obs registry — checkpoint and freeze latency
// histograms and check/replay/violation/reset counters — and
// Config.HealthEvery periodically captures the whole registry as a
// health snapshot sent through the exporter's ConsumeHealth, so the
// export WAL carries the detector's health timeline alongside its
// trace (see internal/export and `montrace stats`).

// detMetrics are the detector's obs handles. checkNs is always live —
// a standalone histogram when no registry is configured — because
// Stats.CheckP50/CheckP99 are computed from it either way; every
// other handle is nil (a no-op) without Config.Obs.
type detMetrics struct {
	checks, violations   *obs.Counter
	eventsReplayed       *obs.Counter
	resets, resetDropped *obs.Counter
	healthsEmitted       *obs.Counter
	checkNs, freezeNs    *obs.Histogram
}

func newDetMetrics(reg *obs.Registry) detMetrics {
	if reg == nil {
		return detMetrics{checkNs: obs.NewHistogram()}
	}
	return detMetrics{
		checks:         reg.Counter("detect_checks_total"),
		violations:     reg.Counter("detect_violations_total"),
		eventsReplayed: reg.Counter("detect_events_replayed_total"),
		resets:         reg.Counter("detect_resets_total"),
		resetDropped:   reg.Counter("detect_reset_dropped_events_total"),
		healthsEmitted: reg.Counter("detect_health_emitted_total"),
		checkNs:        reg.Histogram("detect_check_ns"),
		freezeNs:       reg.Histogram("detect_freeze_ns"),
	}
}

// maybeEmitHealthLocked sends a health snapshot through the exporter
// when the cadence has elapsed. Called at checkpoint boundaries under
// d.mu, so snapshots interleave with checkpoints, never inside one;
// the first checkpoint always emits (the timeline's anchor). The
// horizon is the database's current LastSeq — the same windowing key
// segment records carry — which is what lets `montrace stats` window
// the timeline through the trace-store index.
//
// One registry snapshot serves both consumers at the boundary: the
// exported health record and the self-watching rule engine's Eval
// (Config.Rules) — the rules judge exactly the timeline the WAL
// carries, and the snapshot cost is paid once.
func (d *Detector) maybeEmitHealthLocked() {
	if d.health == nil {
		return
	}
	now := d.cfg.Clock.Now()
	if !d.lastHealth.IsZero() && now.Sub(d.lastHealth) < d.cfg.HealthEvery {
		return
	}
	d.lastHealth = now
	d.met.healthsEmitted.Inc()
	seq := d.db.LastSeq()
	snap := d.cfg.Obs.Snapshot()
	d.health.ConsumeHealth(obs.HealthRecord{
		At:      now,
		Seq:     seq,
		Metrics: snap,
	})
	d.evalRulesLocked(now, seq, snap)
}

// evalRulesLocked runs the self-watching threshold rules against the
// health snapshot just emitted. Every transition (fire or clear) is
// persisted through the exporter as a WAL alert record; a fire
// additionally raises a synthetic meta-violation (rules.Meta, Phase
// "meta") through the ordinary found/OnViolation path — pipeline
// degradation surfaces exactly where application faults do — and,
// when the rule names a ResetMonitor, enqueues a shard-local
// RequestReset that the caller's boundary drain applies before the
// checkpoint returns. Caller holds d.mu.
func (d *Detector) evalRulesLocked(now time.Time, seq int64, snap obs.Snapshot) {
	if d.rules == nil {
		return
	}
	d.alertBuf = d.rules.Eval(d.alertBuf[:0], now, seq, snap)
	for _, a := range d.alertBuf {
		d.health.ConsumeAlert(a)
		if !a.Firing {
			continue
		}
		v := rules.Violation{
			Rule:    rules.Meta,
			Monitor: a.Rule,
			Seq:     a.Seq,
			At:      a.At,
			Phase:   "meta",
			Message: a.String(),
		}
		d.stats.Violations++
		d.met.violations.Inc()
		d.found = append(d.found, v)
		if d.cfg.OnViolation != nil {
			d.cfg.OnViolation(v)
		}
		if target := d.resetFor[a.Rule]; target != "" {
			d.RequestReset(target, v)
		}
	}
}
