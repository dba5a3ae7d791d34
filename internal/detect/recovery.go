package detect

// Shard-local online recovery: resetting one faulty monitor without
// stopping the world.
//
// The recovery policies (internal/recovery) used to call
// monitor.Reset directly, which is only safe while a hold-world
// checkpoint has the whole system stopped — exactly the coordination
// the per-monitor checkpoint mode was built to avoid. The detector is
// the one component that already linearises everything touching a
// monitor's checkpoint state (snapshots, shard drains, batched
// replays, checking-list seeds), so the online reset lives here:
// RequestReset enqueues, and the reset is applied under the checkpoint
// lock at a checkpoint boundary — freeze only the offending monitor,
// discard its buffered history, reinitialise monitor + checking
// state, emit a recovery marker, thaw. Every other monitor
// keeps recording, checkpointing and exporting throughout.

import (
	"robustmon/internal/checklists"
	"robustmon/internal/history"
	"robustmon/internal/rules"
)

// resetReq is one queued shard-local reset: the monitor to reset and
// the violation that demanded it (carried into the recovery marker).
type resetReq struct {
	name string
	v    rules.Violation
}

// RequestReset schedules a shard-local online reset of the named
// monitor and reports whether the monitor is covered by this detector.
// recovery.Manager routes its ResetMonitor policy here (it implements
// recovery.Resetter), but the method is ordinary public API.
//
// The reset itself is applied under the checkpoint lock, never inside
// a checkpoint: a request made from an OnViolation callback (the
// periodic phase calls it synchronously mid-checkpoint) is applied
// before that checkpoint returns, and a request made from anywhere
// else — including the real-time checker's callback, which runs inside
// the faulty monitor's own critical section — is applied by a detached
// goroutine as soon as the lock is free. That indirection is what
// fences the reset against an in-flight (possibly batched) checkpoint
// on the same shard: the checkpoint fixed its horizon under the monitor's
// freeze, and the reset can only run after that checkpoint (and its
// batched drains) fully completed, taking a fresh horizon of its own.
//
// What one applied reset does, with only the offending monitor frozen:
//
//   - history.DB.ResetMonitor discards the shard's buffered unchecked
//     events (they are not exported — the marker records the gap);
//   - monitor.ResetFrozen clears the queues and the inside set,
//     restores R#, and aborts the parked processes;
//   - the monitor's checking state is reseeded from a fresh post-reset
//     snapshot (previous snapshot, cumulative send/receive counts,
//     request list);
//   - a history.RecoveryMarker is emitted through Config.Exporter's
//     ConsumeMarker when an exporter is wired.
//
// Duplicate requests for the same monitor that are pending together
// coalesce into a single reset.
func (d *Detector) RequestReset(name string, v rules.Violation) bool {
	if _, ok := d.byName[name]; !ok {
		return false
	}
	d.resetMu.Lock()
	d.resetQ = append(d.resetQ, resetReq{name: name, v: v})
	d.resetMu.Unlock()
	// Apply on a detached goroutine: the caller may be inside the
	// faulty monitor's critical section (real-time phase) or inside the
	// checkpoint that found the violation (periodic phase), and the
	// reset must freeze the monitor and take the checkpoint lock —
	// either would self-deadlock inline. The goroutine blocks for the
	// lock rather than trying it, so a request that races any other
	// lock holder (a checkpoint, Stats, Violations) is applied the
	// moment that holder releases — it can never strand in the queue.
	// When the checkpoint that found the violation drains the queue at
	// its own boundary first, the goroutine simply finds it empty.
	go func() {
		d.mu.Lock()
		d.applyResetsLocked()
		d.mu.Unlock()
	}()
	return true
}

// applyResetsLocked drains the reset queue and applies each reset,
// coalescing duplicate monitors. Caller holds d.mu.
func (d *Detector) applyResetsLocked() {
	for {
		d.resetMu.Lock()
		q := d.resetQ
		d.resetQ = nil
		d.resetMu.Unlock()
		if len(q) == 0 {
			return
		}
		done := make(map[string]bool, len(q))
		for _, r := range q {
			if done[r.name] {
				continue
			}
			done[r.name] = true
			d.resetOneLocked(r)
		}
	}
}

// resetOneLocked performs one shard-local reset. Caller holds d.mu, so
// no checkpoint is in flight; only the offending monitor is frozen,
// and only for the duration of the state surgery — the drained-and-
// replayed history of every other monitor is untouched.
func (d *Detector) resetOneLocked(r resetReq) {
	i, ok := d.byName[r.name]
	if !ok {
		return
	}
	ms := d.mons[i]
	now := d.cfg.Clock.Now()

	ms.mon.Freeze()
	// The horizon is fixed under the freeze: every event this monitor
	// ever recorded has Seq ≤ horizon, and everything it records after
	// the thaw is beyond it — the same fencing a batched checkpoint
	// uses, now marking the boundary between the monitor's two lives.
	horizon := d.db.LastSeq()
	dropped := d.db.ResetMonitor(r.name)
	parked := ms.mon.ResetFrozen()
	snap := ms.mon.Snapshot()
	snap.LastSeq = horizon
	d.db.AppendState(snap)
	ms.mon.Thaw()
	for _, p := range parked {
		p.Abort()
	}

	// Reseed the cross-checkpoint checking state from the post-reset
	// snapshot: the next checkpoint replays only events of the fresh
	// life against a base that matches it.
	ms.prev = snap
	ms.tot = counts{}
	ms.rl = checklists.NewRequestList(ms.mon.Spec())

	d.stats.Resets++
	d.stats.ResetDropped += dropped
	d.met.resets.Inc()
	d.met.resetDropped.Add(int64(dropped))
	if d.cfg.Exporter != nil {
		d.cfg.Exporter.ConsumeMarker(history.RecoveryMarker{
			Monitor: r.name,
			Horizon: horizon,
			Dropped: dropped,
			Rule:    string(r.v.Rule),
			Pid:     r.v.Pid,
			At:      now,
		})
	}
}
