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
// (event.Merge) on Drain, Full and the exports. The merged trace is
// byte-identical to what a single global database would have recorded.
// DrainMonitorUpTo lets the detector's parallel checkpoint pipeline
// drain one monitor's shard without touching any other — which also
// means detectors only consume the shards of monitors they were given,
// so several detectors can share one database without stealing each
// other's segments. The flip side: a monitor wired to a database but
// covered by no detector (and never drained) buffers its events
// indefinitely; give every recording monitor a detector, or drain its
// shard yourself.
//
// # Batched publication
//
// Append pays one shard-lock acquire and three atomic updates per
// event. AppendBatch publishes a block under a single acquire with one
// contiguous sequence-range claim, and BatchWriter (see batch.go)
// stages events per producer so blocks form without shared state; the
// checkpoint flush handshake (FlushWriters) keeps drains and
// checkpoints exactly as consistent as the singleton path.
package history

import (
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"robustmon/internal/event"
	"robustmon/internal/state"
)

// shard holds one monitor's slice of the database. Its segment (and
// full trace, when retained) is sorted by global sequence number,
// because Append claims the sequence number under the shard lock.
type shard struct {
	mu      sync.Mutex
	segment []event.Event
	full    event.Seq
	// counter is the owning monitor's cumulative event counter,
	// resolved once at shard creation so Append never touches the
	// counter map.
	counter *counter
	// met points at the owning DB's obs handles (never nil; the
	// handles inside are nil without WithObs), so the drain path can
	// count pool traffic without reaching back to the DB.
	met *histMetrics
}

// counter is one monitor's cumulative event count. It lives outside
// the shard so that rate estimators (the adaptive checkpoint
// scheduler) can read it lock-free while appends and drains are in
// flight.
type counter struct{ n atomic.Int64 }

// DrainTee observes drained segments. The database calls each
// installed tee once per (monitor, segment) pair for every Drain,
// DrainMonitor and DrainMonitorUpTo, on the draining goroutine after
// the shard locks are released. A tee only reads: the segment belongs
// to the drain caller (and, in a detector, next to its exporter, which
// recycles the slab once written), so a tee must neither mutate it nor
// keep any reference to it after returning — copy out what it needs.
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

	// shardMu guards the shards map itself (shard creation); appends on
	// an existing shard take only the shard's own lock.
	shardMu sync.RWMutex
	shards  map[string]*shard

	// countMu guards the counters map itself; the counts are atomics so
	// readers (EventCount) never take a lock on the hot path.
	countMu sync.RWMutex
	counts  map[string]*counter

	// writerMu guards the registry of live BatchWriters — the set the
	// checkpoint flush handshake (FlushWriters) publishes. Writers
	// register in NewBatchWriter and leave in Close; the registry is
	// touched at construction, close and checkpoint rhythm, never per
	// event. Close and the handshake also flush under it, so the two
	// never publish the same staged block.
	writerMu sync.Mutex
	writers  map[*BatchWriter]struct{}

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
	db := &DB{
		shards: make(map[string]*shard, 8),
		counts: make(map[string]*counter, 8),
	}
	for _, o := range opts {
		o(db)
	}
	return db
}

// shardFor returns the shard receiving events of the named monitor,
// creating it on first use.
func (db *DB) shardFor(monitor string) *shard {
	db.shardMu.RLock()
	s := db.shards[monitor]
	db.shardMu.RUnlock()
	if s != nil {
		return s
	}
	db.shardMu.Lock()
	defer db.shardMu.Unlock()
	if s = db.shards[monitor]; s == nil {
		s = &shard{counter: db.counterFor(monitor), met: &db.met}
		db.shards[monitor] = s
	}
	return s
}

// counterFor returns the named monitor's cumulative event counter,
// creating it on first use.
func (db *DB) counterFor(monitor string) *counter {
	db.countMu.RLock()
	c := db.counts[monitor]
	db.countMu.RUnlock()
	if c != nil {
		return c
	}
	db.countMu.Lock()
	defer db.countMu.Unlock()
	if c = db.counts[monitor]; c == nil {
		c = &counter{}
		db.counts[monitor] = c
	}
	return c
}

// EventCount returns how many events the named monitor has recorded
// over the database's lifetime (drains do not decrement it). It is a
// single atomic load after the first call for a monitor, so rate
// estimators — the adaptive checkpoint scheduler samples every
// monitor's counter on each tick — can poll it while appends, drains
// and hold-world barriers are in flight.
func (db *DB) EventCount(monitor string) int64 {
	return db.counterFor(monitor).n.Load()
}

// lockAllShards locks every shard in deterministic (name) order and
// returns them (with their monitor names, index-aligned) and an
// unlock function. The shard-map read lock is held until unlock, so
// no new shard can appear mid-operation, and with every shard lock
// held no Append can be mid-flight: the recorded events are exactly
// sequence numbers 1..nextSeq. Multi-shard operations therefore
// observe one consistent global state even without freezing the
// monitors. The deterministic order makes concurrent multi-shard
// operations deadlock-free (single-shard paths hold at most one shard
// lock and never a shard lock under shardMu).
func (db *DB) lockAllShards() ([]string, []*shard, func()) {
	db.shardMu.RLock()
	names := make([]string, 0, len(db.shards))
	for name := range db.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	shards := make([]*shard, 0, len(names))
	for _, name := range names {
		shards = append(shards, db.shards[name])
	}
	for _, s := range shards {
		s.mu.Lock()
	}
	return names, shards, func() {
		for _, s := range shards {
			s.mu.Unlock()
		}
		db.shardMu.RUnlock()
	}
}

// AddDrainTee adds a read-only tee observing every segment drained
// from now on — by any Drain or DrainMonitor caller, so several
// detectors sharing the database each see the whole stream, not just
// their own drains. Tees run on the draining goroutine after the shard
// locks are released — a slow tee delays the drainer but never blocks
// concurrent Appends. A tee reads the segment during its call and
// never retains it (see DrainTee); an exporter is therefore not a tee:
// it takes ownership of the segments it writes, so wire it through
// the detector's Config.Exporter instead.
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

// teePair is one (monitor, drained segment) observation for the tee.
type teePair struct {
	monitor string
	seg     event.Seq
}

// Append records the event, assigns it the next global sequence number
// (starting at 1), and returns the stored copy. Appends to different
// monitors contend only on the atomic counter, never on a common lock.
// For block publication amortising the lock and the sequence claim,
// see AppendBatch and BatchWriter (batch.go).
//
// This is the hottest function in the repository: the shard caches
// its monitor's counter, the unlock is explicit rather than deferred,
// and the atomic counter updates happen after the lock is released —
// the critical section is exactly the sequence claim and the two slice
// appends.
func (db *DB) Append(e event.Event) event.Event {
	s := db.shardFor(e.Monitor)
	s.mu.Lock()
	// Claimed under the shard lock, so the shard's segment stays sorted
	// by global sequence number.
	e.Seq = db.nextSeq.Add(1)
	s.segment = append(s.segment, e)
	if db.keepFull {
		s.full = append(s.full, e)
	}
	s.mu.Unlock()
	db.total.Add(1)
	s.counter.n.Add(1)
	db.met.appends.Inc()
	return e
}

// Drain returns the events recorded since the previous Drain (the
// checking segment L = l1…ln of Algorithm 1–3), merged across shards
// into global sequence order, and resets every shard's segment. It
// holds every shard lock for the duration, so even without freezing
// the monitors the drained segment is a consistent prefix of the
// global sequence: it contains every recorded event up to its highest
// sequence number. The drained per-monitor segments are fed to the
// drain tee (if one is installed) after the locks are released.
func (db *DB) Drain() event.Seq {
	tees := db.drainTees()
	names, shards, unlock := db.lockAllShards()
	segs := make([]event.Seq, 0, len(shards))
	var pairs []teePair
	for i, s := range shards {
		if len(s.segment) == 0 {
			continue
		}
		seg := s.drainSegmentLocked(len(s.segment))
		segs = append(segs, seg)
		if tees != nil {
			pairs = append(pairs, teePair{monitor: names[i], seg: seg})
		}
	}
	unlock()
	for _, tee := range tees {
		for _, p := range pairs {
			tee(p.monitor, p.seg)
		}
	}
	if len(segs) == 1 {
		return segs[0] // ownership transferred; skip Merge's copy
	}
	return event.Merge(segs...)
}

// DrainMonitor returns and resets only the named monitor's segment:
// DrainMonitorUpTo with no horizon and no batch bound.
func (db *DB) DrainMonitor(monitor string) event.Seq {
	seg, _ := db.DrainMonitorUpTo(monitor, math.MaxInt64, 0)
	return seg
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
// shard lock is released, like every other drain path.
func (db *DB) DrainMonitorUpTo(monitor string, upTo int64, max int) (event.Seq, bool) {
	s := db.shardFor(monitor)
	s.mu.Lock()
	// The shard is seq-sorted, so the events ≤ upTo are a prefix.
	k := sort.Search(len(s.segment), func(i int) bool {
		return s.segment[i].Seq > upTo
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

// Peek returns a copy of the current segment, merged across shards,
// without draining it. Like Drain it holds every shard lock, so the
// result is a consistent view of the buffered events.
func (db *DB) Peek() event.Seq {
	_, shards, unlock := db.lockAllShards()
	defer unlock()
	segs := make([]event.Seq, 0, len(shards))
	for _, s := range shards {
		if len(s.segment) > 0 {
			// Merge never aliases its inputs into its output, so the live
			// segments can be read directly under the held locks.
			segs = append(segs, event.Seq(s.segment))
		}
	}
	return event.Merge(segs...)
}

// LastSeq returns the sequence number of the most recently recorded
// event (0 when nothing was recorded yet).
func (db *DB) LastSeq() int64 { return db.nextSeq.Load() }

// Total returns the number of events ever recorded.
func (db *DB) Total() int64 { return db.total.Load() }

// SegmentLen returns the number of events currently buffered across
// all shards.
func (db *DB) SegmentLen() int {
	_, shards, unlock := db.lockAllShards()
	defer unlock()
	n := 0
	for _, s := range shards {
		n += len(s.segment)
	}
	return n
}

// Shards reports how many shards the database currently holds (one per
// monitor seen so far).
func (db *DB) Shards() int {
	db.shardMu.RLock()
	defer db.shardMu.RUnlock()
	return len(db.shards)
}

// Full returns a copy of the complete trace in global sequence order.
// It returns nil unless the database was built with WithFullTrace.
// Every shard lock is held while copying, so a Full taken mid-run is
// a consistent prefix of the run — it never contains an event while
// missing a lower-numbered one.
func (db *DB) Full() event.Seq {
	if !db.keepFull {
		return nil
	}
	_, shards, unlock := db.lockAllShards()
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

// KeepsFull reports whether the database retains the complete trace.
func (db *DB) KeepsFull() bool { return db.keepFull }

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

// ExportJSON writes the full trace as JSON Lines. It requires
// WithFullTrace.
func (db *DB) ExportJSON(w io.Writer) error {
	return event.WriteJSON(w, db.Full())
}

// ExportBinary writes the full trace in the binary format. It requires
// WithFullTrace.
func (db *DB) ExportBinary(w io.Writer) error {
	return event.WriteBinary(w, db.Full())
}
