package history

import "time"

// RecoveryMarker records one shard-local online reset — the recovery
// manager's answer to the paper's §5 future-work ask that "error
// recovery mechanisms should be incorporated into the model". When a
// violation triggers the ResetMonitor policy, the detector freezes only
// the offending monitor, discards its buffered (never checked, never
// exported) events via DB.ResetMonitor, reinitialises the monitor and
// its checking state, and emits one of these markers through the export
// pipeline so offline replay knows a reset horizon exists: the named
// monitor's exported trace may be missing events at or below Horizon
// (they were discarded unreplayed), so calling-order or pairing
// violations straddling the horizon can be artefacts of the reset, not
// of the monitored program.
//
// The marker is defined here — not in internal/export — because it
// annotates the history stream itself: detect creates it, export
// persists and replays it, and cmd/montrace renders it, without detect
// ever importing export.
type RecoveryMarker struct {
	// Monitor names the monitor that was reset.
	Monitor string
	// Horizon is the database's global sequence number at the instant
	// the monitor was frozen for the reset. Every event of this monitor
	// with Seq ≤ Horizon was either already drained (checked and
	// exported) or discarded by the reset; events recorded after the
	// thaw have Seq > Horizon and belong to the monitor's fresh life.
	Horizon int64
	// Dropped is how many buffered events the reset discarded without
	// replaying or exporting them — the size of the gap the marker
	// announces.
	Dropped int
	// Rule is the violated rule that triggered the reset (the string
	// form of rules.ID; history does not import rules).
	Rule string
	// Pid is the offending process of the triggering violation, 0 when
	// the violation named none.
	Pid int64
	// At is the instant the reset was applied.
	At time.Time
}

// ResetMonitor discards the named monitor's buffered (not yet drained)
// events — the history half of a shard-local recovery reset. It
// returns how many events were discarded.
//
// Only the one shard is touched; appends and drains on every other
// monitor proceed untouched, which is what makes the recovery path
// world-stop free. The discarded events are deliberately NOT fed to the
// drain tees: they were never checked, and exporting them would make
// the offline trace claim a history the detector never replayed — the
// RecoveryMarker the caller emits records the gap instead. A full trace
// retained under WithFullTrace is also kept intact: it records what the
// monitors did, and the reset abandons only the unchecked segment.
func (db *DB) ResetMonitor(monitor string) int {
	s := db.shardFor(monitor)
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := len(s.buffered())
	// Truncate in place: nothing is handed out, so the slab (and its
	// capacity) stays with the shard. The discarded events, and the
	// drained region before them, are cleared: the slab reaches the
	// pool with the next full drain, and a pooled slab holds no stale
	// events (see pool.go).
	clear(s.slab)
	s.slab, s.head = s.slab[:0], 0
	return dropped
}
