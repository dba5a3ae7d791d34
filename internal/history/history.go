// Package history is the history-information database of §3/§4.
//
// Data-gathering routines (the instrumented monitor primitives) append
// scheduling events in real time; the checking routine drains the
// segment of events recorded since the previous checkpoint and replays
// it against the checking lists. Following §3.3 — "only a small amount
// of information needs to be kept … most of the information can be
// removed after being used" — a drained segment is discarded unless the
// database was configured to keep the full trace (useful for offline
// FD-rule checking, export, and the T=1 accuracy mode).
//
// # Sharding
//
// The database is sharded per monitor: each monitor's events land in a
// shard with its own lock and segment buffer, so monitors that run
// concurrently never contend on a database-wide mutex. Global event
// order — the paper's <L relation — is preserved by an atomic sequence
// counter: every Append claims the next global sequence number while
// holding only its shard's lock, so each shard's segment is internally
// seq-sorted and the global sequence is recovered by merging shards
// (event.Merge) on Full. The merged trace is byte-identical to what a
// single global database would have recorded. DrainMonitorUpTo, the
// one drain, lets the detector's parallel checkpoint pipeline drain
// one monitor's shard without touching any other — which also
// means detectors only consume the shards of monitors they were given,
// so several detectors can share one database without stealing each
// other's segments. The flip side: a monitor wired to a database but
// covered by no detector (and never drained) buffers its events
// indefinitely; give every recording monitor a detector, or drain its
// shard yourself.
package history

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"robustmon/internal/event"
	"robustmon/internal/state"
)

// shard holds one monitor's slice of the database. Its buffered
// events (and full trace, when retained) are sorted by global sequence
// number, because Append claims the sequence number under the shard
// lock.
type shard struct {
	mu sync.Mutex
	// slab is the pooled backing array from its start (see pool.go);
	// the buffered events are slab[head:], and slab[:head] is the
	// region partial drains advanced past. Everything beyond len(slab)
	// is zero.
	slab []event.Event
	head int
	// cut counts the events partial drains handed out since the last
	// full drain; with the final batch it sizes the replacement slab.
	cut  int
	full event.Seq
	// met points at the owning DB's obs handles (never nil; the
	// handles inside are nil without WithObs), so the drain path can
	// count pool traffic without reaching back to the DB.
	met *histMetrics
}

// DrainTee observes drained segments. The database calls each
// installed tee once per (monitor, segment) pair for every
// DrainMonitorUpTo, on the draining goroutine after the shard lock is
// released. A tee only reads: the segment belongs to the drain caller
// (and, in a detector, next to its exporter, which recycles the slab
// once written), so a tee must neither mutate it nor keep any
// reference to it after returning — copy out what it needs.
type DrainTee func(monitor string, seg event.Seq)

// DB is a concurrent, append-only event store with checkpoint draining,
// sharded per monitor. Construct with New.
type DB struct {
	nextSeq  atomic.Int64
	total    atomic.Int64
	keepFull bool

	// tees observe every drained segment (see DrainTee). Guarded by
	// teeMu so AddDrainTee can race drains safely.
	teeMu sync.RWMutex
	tees  []DrainTee

	// shards maps each monitor to its shard. The map is copy-on-write:
	// a published map is never written, so Append finds an existing
	// shard with one atomic load and no lock. shardMu serialises shard
	// creation, which publishes a copy with the new shard added, and
	// lockAllShards holds it so no shard appears mid-operation.
	// Creation copies the whole map, which is fine for the 1–64
	// monitors a database here serves, each created once.
	shardMu sync.Mutex
	shards  atomic.Pointer[map[string]*shard]

	// stateMu guards the checkpoint snapshots — a cold path written only
	// at checkpoints, deliberately outside the shard locks.
	stateMu sync.Mutex
	states  []state.Snapshot

	// met are the obs handles (see obs.go); zero value = disabled.
	met histMetrics
}

// Option configures a DB.
type Option func(*DB)

// WithFullTrace keeps every event ever recorded (in addition to the
// per-checkpoint segment) so the run can be exported or re-checked
// offline. Without it the database holds only the current segment, as
// in the paper's space-efficient strategy.
func WithFullTrace() Option {
	return func(db *DB) { db.keepFull = true }
}

// New returns an empty database, sharded per monitor.
func New(opts ...Option) *DB {
	db := &DB{}
	db.shards.Store(&map[string]*shard{})
	for _, o := range opts {
		o(db)
	}
	return db
}

// shardFor returns the shard receiving events of the named monitor,
// creating it on first use.
func (db *DB) shardFor(monitor string) *shard {
	if s := (*db.shards.Load())[monitor]; s != nil {
		return s
	}
	db.shardMu.Lock()
	defer db.shardMu.Unlock()
	old := *db.shards.Load()
	if s := old[monitor]; s != nil {
		return s
	}
	s := &shard{met: &db.met}
	m := make(map[string]*shard, len(old)+1)
	maps.Copy(m, old)
	m[monitor] = s
	db.shards.Store(&m)
	return s
}

// buffered returns the shard's buffered (not yet drained) events.
// Caller holds s.mu.
func (s *shard) buffered() []event.Event { return s.slab[s.head:] }

// lockAllShards locks every shard in deterministic (name) order and
// returns them and an unlock function. shardMu is held until unlock,
// so no new shard can appear mid-operation, and with
// every shard lock held no Append can be mid-flight: the recorded
// events are exactly sequence numbers 1..nextSeq. Multi-shard
// operations therefore observe one consistent global state even
// without freezing the monitors. The deterministic order makes
// concurrent multi-shard operations deadlock-free (single-shard paths
// hold at most one shard lock and never a shard lock under shardMu).
func (db *DB) lockAllShards() ([]*shard, func()) {
	db.shardMu.Lock()
	m := *db.shards.Load()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	shards := make([]*shard, 0, len(names))
	for _, name := range names {
		shards = append(shards, m[name])
	}
	for _, s := range shards {
		s.mu.Lock()
	}
	return shards, func() {
		for _, s := range shards {
			s.mu.Unlock()
		}
		db.shardMu.Unlock()
	}
}

// AddDrainTee adds a read-only tee observing every segment drained
// from now on — by any DrainMonitorUpTo caller, so several detectors
// sharing the database each see the whole stream, not just their own
// drains. Tees run on the draining goroutine after the shard lock is
// released — a slow tee delays the drainer but never blocks concurrent
// Appends. A tee reads the segment during its call and never retains
// it (see DrainTee); an exporter is therefore not a tee: it takes
// ownership of the segments it writes, so wire it through the
// detector's Config.Exporter instead.
func (db *DB) AddDrainTee(tee DrainTee) {
	db.teeMu.Lock()
	db.tees = append(db.tees, tee)
	db.teeMu.Unlock()
}

// drainTees snapshots the installed tees (nil when none).
func (db *DB) drainTees() []DrainTee {
	db.teeMu.RLock()
	defer db.teeMu.RUnlock()
	if len(db.tees) == 0 {
		return nil
	}
	return append([]DrainTee(nil), db.tees...)
}

// Append records the event, assigns it the next global sequence number
// (starting at 1), and returns the stored copy. Appends to different
// monitors contend only on the atomic counter, never on a common lock.
//
// This is the hottest function in the repository: it pays one shard
// lookup (a lock-free map read), one shard lock, one sequence atomic
// and one total atomic per event. The unlock is explicit rather than
// deferred, and the total is bumped after the lock is released — the
// critical section is exactly the sequence claim and the two slice
// appends. A full slab grows into the next pooled class (pool.go), so
// the segment append never reallocates.
func (db *DB) Append(e event.Event) event.Event {
	s := db.shardFor(e.Monitor)
	s.mu.Lock()
	// Claimed under the shard lock, so the shard's buffer stays sorted
	// by global sequence number.
	e.Seq = db.nextSeq.Add(1)
	if len(s.slab) == cap(s.slab) {
		s.grow()
	}
	s.slab = append(s.slab, e)
	if db.keepFull {
		s.full = append(s.full, e)
	}
	s.mu.Unlock()
	db.total.Add(1)
	db.met.appends.Inc()
	return e
}

// DrainMonitorUpTo drains at most max events (max <= 0 means no bound)
// of the named monitor's segment, restricted to sequence numbers ≤
// upTo, and reports whether more such events remain buffered. It is
// the per-monitor checkpoint drain: the detector fixes the checkpoint
// horizon upTo while the monitor is frozen and then pulls the segment
// in one or more batches — events recorded after the freeze have
// sequence numbers > upTo and stay buffered for the next checkpoint,
// so the drained prefix is exactly what the monitor had recorded at
// the freeze instant. Only the one shard is touched, so drains never
// stop another monitor. Each batch is fed to the drain tees after the
// shard lock is released.
func (db *DB) DrainMonitorUpTo(monitor string, upTo int64, max int) (event.Seq, bool) {
	s := db.shardFor(monitor)
	s.mu.Lock()
	// The shard is seq-sorted, so the events ≤ upTo are a prefix.
	buf := s.buffered()
	k := sort.Search(len(buf), func(i int) bool {
		return buf[i].Seq > upTo
	})
	n := k
	if max > 0 && n > max {
		n = max
	}
	// The drained prefix is exclusively the consumers' (see
	// drainSegmentLocked): nothing can scribble over the events left
	// buffered, and the shard keeps a slab instead of regrowing from
	// nil every checkpoint.
	seg := s.drainSegmentLocked(n)
	s.mu.Unlock()
	if len(seg) > 0 {
		for _, tee := range db.drainTees() {
			tee(monitor, seg)
		}
	}
	return seg, k > n
}

// LastSeq returns the sequence number of the most recently recorded
// event (0 when nothing was recorded yet).
func (db *DB) LastSeq() int64 { return db.nextSeq.Load() }

// Total returns the number of events ever recorded.
func (db *DB) Total() int64 { return db.total.Load() }

// Full returns a copy of the complete trace in global sequence order.
// It returns nil unless the database was built with WithFullTrace.
// Every shard lock is held while copying, so a Full taken mid-run is
// a consistent prefix of the run — it never contains an event while
// missing a lower-numbered one.
func (db *DB) Full() event.Seq {
	if !db.keepFull {
		return nil
	}
	shards, unlock := db.lockAllShards()
	defer unlock()
	fulls := make([]event.Seq, 0, len(shards))
	for _, s := range shards {
		if len(s.full) > 0 {
			// Merge copies, so the live per-shard traces are safe to pass.
			fulls = append(fulls, event.Seq(s.full))
		}
	}
	return event.Merge(fulls...)
}

// AppendState records a checkpoint snapshot — §4's database "consists
// of the scheduling event sequence recorded during monitor operation
// AND the checking lists generated at the checking points". The
// detector records each monitor's frozen snapshot here so offline
// tooling can reconstruct the exact checkpoint boundaries.
//
// Snapshots are only retained when the database keeps the full trace;
// in the space-efficient configuration they are discarded like drained
// segments.
func (db *DB) AppendState(snap state.Snapshot) {
	if !db.keepFull {
		return
	}
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	db.states = append(db.states, snap.Clone())
}

// States returns the recorded checkpoint snapshots in order (nil
// without WithFullTrace). Within one HoldWorld checkpoint the per-
// monitor snapshots appear in detector monitor order; in per-monitor
// checkpoint mode they appear in completion order.
func (db *DB) States() []state.Snapshot {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	out := make([]state.Snapshot, 0, len(db.states))
	for _, s := range db.states {
		out = append(out, s.Clone())
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// LastState returns the most recent checkpoint snapshot for the named
// monitor, if one was recorded.
func (db *DB) LastState(monitorName string) (state.Snapshot, bool) {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	for i := len(db.states) - 1; i >= 0; i-- {
		if db.states[i].Monitor == monitorName {
			return db.states[i].Clone(), true
		}
	}
	return state.Snapshot{}, false
}
