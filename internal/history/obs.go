package history

import "robustmon/internal/obs"

// Instrumentation. The database self-reports through internal/obs:
// WithObs hands it a registry and every layer of the record path
// counts itself — appends at event rhythm,
// slab-pool traffic and drain sizes at drain rhythm. Without WithObs
// the handles are nil and every update is a nil-safe no-op (obs's
// off switch), so the uninstrumented hot path pays only a predicted
// branch per counter. The instrumented cost is gated end to end by the
// benchmark's fanout-fleet workload, whose database runs on a registry.

// histMetrics are the database's obs handles; the zero value (all
// nil) is the disabled mode. Shards hold a pointer to the DB's copy,
// so shard-side updates never touch the DB struct's hot cache lines
// beyond the counters themselves.
type histMetrics struct {
	// appends counts Append calls.
	appends *obs.Counter
	// poolHit/poolMiss count drain-rhythm slab requests served from
	// the segment pool vs freshly allocated (requests outside the
	// pooled classes count as neither). Hits are how recycled slabs
	// show: a slab only re-enters the pool through Recycle.
	poolHit, poolMiss *obs.Counter
	// drainEvents is the distribution of drained-segment sizes, the
	// shape the checkpoint cadence and batch knobs are tuned against.
	drainEvents *obs.Histogram
}

func newHistMetrics(reg *obs.Registry) histMetrics {
	if reg == nil {
		return histMetrics{}
	}
	return histMetrics{
		appends:     reg.Counter("history_append_total"),
		poolHit:     reg.Counter("history_pool_hit_total"),
		poolMiss:    reg.Counter("history_pool_miss_total"),
		drainEvents: reg.Histogram("history_drain_events"),
	}
}

// WithObs instruments the database on the given registry (see
// internal/obs): history_append_total, history_pool_hit_total,
// history_pool_miss_total and the history_drain_events histogram. Nil
// disables at zero cost.
func WithObs(reg *obs.Registry) Option {
	return func(db *DB) { db.met = newHistMetrics(reg) }
}
