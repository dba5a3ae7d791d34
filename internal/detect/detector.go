// Package detect implements the invisible part of the augmented
// monitor construct: the periodic checking routine running Algorithm-1
// (general concurrency-control checking), Algorithm-2 (consistency of
// resource states) and Algorithm-3 (calling orders), plus the
// real-time calling-order checker for resource-allocator monitors
// (§3.3 — "Our fault detection strategy includes two phases: real-time
// checking of calling orders … and periodical checking of other
// errors").
//
// Checkpoints run as a parallel pipeline over the sharded history
// database: each monitor's snapshot → drain of its own shard up to the
// checkpoint horizon → replay is independent work, distributed across
// a bounded worker pool. Two modes exist. HoldWorld (the
// paper-faithful default) is a two-phase barrier: phase one freezes
// every monitored monitor and takes all snapshots against one
// checkpoint horizon, phase two drains and replays the per-monitor
// segments in parallel before thawing, so the checkpoint observes one
// consistent global state exactly as §4 prescribes. With HoldWorld
// off, each monitor is frozen only long enough to take its snapshot
// and fix its horizon, then drained and replayed while it keeps
// executing; an unrelated monitor never stops — the cheap mode for
// many-monitor workloads. Timers (Tmax, Tio, Tlimit) close the gap
// for faults whose only symptom is that nothing happens. See
// DESIGN.md for the architecture.
//
// Batched replay (Config.BatchSize) sits on top of the pipeline: each
// monitor's segment is drained and replayed in fixed-size batches with
// the checking-list seeding paid once per checkpoint, so a shard that
// buffered a million events no longer stalls its checkpoint on one
// giant drain. It is detection-equivalent to the serial single-drain
// path: the same events replay through the same seeded lists, so the
// violation set is identical (pinned by TestBatchedEquivalence).
package detect

import (
	"context"
	"runtime"
	"sync"
	"time"

	"robustmon/internal/checklists"
	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/rules"
	"robustmon/internal/state"
)

// Config parameterises the detector.
type Config struct {
	// Interval is the checking period T. Tmax < T should hold for the
	// timers to be meaningful (§3.3). Used by Run; CheckNow ignores it.
	Interval time.Duration
	// Tmax is the longest a process may stay inside a monitor or on a
	// condition queue (ST-5). Zero disables.
	Tmax time.Duration
	// Tio is the starvation timeout for the entry queue (ST-6). Zero
	// disables.
	Tio time.Duration
	// Tlimit is the longest a process may hold an allocated resource
	// (ST-8c). Zero disables.
	Tlimit time.Duration
	// Clock is the time source (default: wall clock).
	Clock clock.Clock
	// HoldWorld keeps every monitor frozen for the whole check, exactly
	// as the paper's prototype suspends all processes during checking.
	// When false, each monitor is frozen only while its own snapshot is
	// taken and its checkpoint horizon fixed; it is drained and replayed
	// while it keeps running, and unrelated monitors never stop (the
	// cheaper variant measured by the ablation benchmarks). New keeps
	// the value it is given, so the zero value is the per-monitor mode;
	// NewDefault and the facade's NewDetector set it.
	HoldWorld bool
	// Workers bounds the checkpoint worker pool: how many monitors are
	// checked concurrently within one checkpoint. Zero means
	// min(GOMAXPROCS, number of monitors); 1 reproduces the serial
	// checking order exactly.
	Workers int
	// OnViolation, when set, is called synchronously for each violation
	// as it is found.
	OnViolation func(rules.Violation)
	// Extra checkers run at every checkpoint while the world is frozen;
	// the assertion sets of the §5 extension plug in here.
	Extra []Checker
	// Exporter, when set, receives every record the detector produces:
	// each checkpoint hands every segment (or batch) it drained to
	// Consume right after replaying it, passing ownership of the slab
	// on; shard-local resets send their recovery markers through
	// ConsumeMarker, the health cadence (HealthEvery) sends snapshots
	// through ConsumeHealth, and Run flushes it after the final
	// checkpoint so the exported trace covers the whole run. This is the
	// streaming replacement for history.WithFullTrace — offline tooling
	// replays the exporter's sink instead of an in-memory full trace.
	// Without an exporter the detector recycles each replayed segment
	// itself (history.Recycle).
	Exporter TraceExporter
	// BatchSize bounds how many events one checkpoint drains and
	// replays at a time. When positive, each monitor's segment up to the
	// checkpoint horizon is drained in batches of this many events: the
	// checking lists are seeded once per checkpoint and each batch
	// replays incrementally, so worst-case checkpoint latency is bounded
	// by the batch size rather than by how much a shard buffered. Zero
	// drains each monitor's segment as one batch with no size bound.
	// The violation set is the same either way; only WAL record framing
	// (one record per drained batch) differs.
	BatchSize int
	// Obs, when set, instruments the detector on the registry (see
	// obs.go): checkpoint/freeze latency histograms and check, replay,
	// violation and reset counters. It is also the registry
	// HealthEvery snapshots are captured from. Nil disables at zero
	// cost (Stats.CheckP50/CheckP99 still work — the latency histogram
	// is kept standalone).
	Obs *obs.Registry
	// HealthEvery, when positive (and Obs and Exporter are both
	// set), captures the registry as a health
	// snapshot at the first checkpoint boundary after each elapsed
	// period and sends it through the exporter, so the export WAL
	// carries a health timeline alongside the trace. Zero disables.
	HealthEvery time.Duration
	// Rules are threshold rules the detector evaluates over its own
	// registry at the health cadence (internal/obs/rules): each health
	// snapshot is shared between the exported health record and one
	// Engine.Eval pass, so watching the watcher costs one extra linear
	// scan per emission, nothing per event. A rule crossing into the
	// firing state is persisted as a WAL alert record (ConsumeAlert)
	// and raised as a synthetic meta-violation (rules.Meta, Phase
	// "meta") through the ordinary found/OnViolation path; a rule with
	// ResetMonitor set additionally drives a shard-local RequestReset.
	// Clears are persisted but raise no violation. Rules need the same
	// three legs as health emission — Obs, Exporter and HealthEvery —
	// and are ignored without them. New panics on an invalid rule set
	// (duplicate or unnamed rules), like any other static-config
	// programming error.
	Rules []obsrules.Rule
}

// Checker is an additional checkpoint-time check (e.g. a user-supplied
// assertion set from internal/assert).
type Checker interface {
	// Check evaluates at instant now and returns any violations.
	Check(now time.Time) []rules.Violation
}

// TraceExporter is the detector's view of the async trace-export
// pipeline (internal/export.Exporter implements it; the indirection
// keeps detect free of an export dependency). Its methods mirror the
// WAL record kinds, so the dispatch is by record kind at the seam
// instead of by type assertion behind it: Consume receives each
// drained segment after the checkpoint has replayed it, ConsumeMarker
// the recovery markers of shard-local resets, ConsumeHealth the
// periodic health snapshots, ConsumeAlert the threshold-rule
// transitions, and Flush forces everything consumed so far to the
// sink.
//
// This seam used to be a segment-only interface with optional
// marker/health extensions discovered by type sniffing, which meant a
// sink could silently lose markers or health records by not
// implementing an extension it never heard of. One interface makes
// the full record surface explicit; exporters that genuinely ignore a
// record kind implement it with a no-op.
type TraceExporter interface {
	// Consume accepts one drained and replayed per-monitor segment and
	// takes ownership of it: the detector never touches the segment
	// again, so the exporter may keep it until written and then hand
	// its slab back with history.Recycle (export.Exporter does). An
	// implementation that forwards the segment must not touch it after
	// the forwarding call either.
	Consume(monitor string, seg event.Seq)
	// ConsumeMarker accepts the recovery marker of one shard-local
	// online reset.
	ConsumeMarker(m history.RecoveryMarker)
	// ConsumeHealth accepts one periodic health snapshot.
	ConsumeHealth(h obs.HealthRecord)
	// ConsumeAlert accepts one threshold-rule transition (fire or
	// clear) from the detector's self-watching rules (Config.Rules).
	ConsumeAlert(a obsrules.Alert)
	// Flush forces everything consumed so far to the sink.
	Flush() error
}

// counts carries the cumulative r/s counters of one coordinator across
// checkpoints.
type counts struct{ sends, recvs int }

// monState is the per-monitor checking state carried across
// checkpoints. Each monitor has exactly one monState, and within a
// checkpoint exactly one worker touches it, so no lock is needed
// beyond the checkpoint barrier itself.
type monState struct {
	mon  *monitor.Monitor
	prev state.Snapshot
	tot  counts
	rl   *checklists.RequestList
}

// Detector is the periodic checking routine. Construct with New; all
// methods are safe for concurrent use, though checkpoints themselves
// are serialised (the worker pool parallelises within a checkpoint).
type Detector struct {
	cfg Config
	db  *history.DB
	// byName maps monitor name → d.mons index; fixed at construction,
	// used by RequestReset to find the monitor to reset.
	byName map[string]int

	// met are the obs handles (see obs.go); met.checkNs is live even
	// without Config.Obs, backing Stats.CheckP50/CheckP99. health is
	// Config.Exporter when health emission is on (nil otherwise);
	// lastHealth is the cadence anchor, guarded by mu like the rest of
	// the checkpoint state.
	met    detMetrics
	health TraceExporter
	// rules is the self-watching threshold engine (nil unless
	// Config.Rules and the health legs are all configured); resetFor
	// maps a rule name to its ResetMonitor target, and alertBuf is the
	// reused Eval destination keeping the no-transition path
	// allocation-free. All guarded by mu like the rest of the
	// checkpoint state.
	rules    *obsrules.Engine
	resetFor map[string]string
	alertBuf []obsrules.Alert

	mu         sync.Mutex
	mons       []*monState
	found      []rules.Violation
	stats      Stats
	lastHealth time.Time

	// resetMu guards the queue of pending shard-local recovery resets;
	// they are applied under d.mu at checkpoint boundaries (see
	// RequestReset in recovery.go).
	resetMu sync.Mutex
	resetQ  []resetReq
}

// Stats summarises detector activity (used by the overhead benches).
type Stats struct {
	// Checks is the number of completed checkpoints.
	Checks int
	// Events is the number of events replayed.
	Events int
	// Violations is the number of violations found (periodic and meta
	// phases).
	Violations int
	// FrozenFor is the cumulative wall time monitors were held frozen:
	// in hold-world mode the whole checkpoint duration (the world is
	// stopped throughout), in per-monitor mode the sum of the
	// individual freeze windows, each covering only the snapshot and
	// the horizon fix.
	FrozenFor time.Duration
	// CheckP50 and CheckP99 are percentile checkpoint latencies — the
	// signal for "a huge shard no longer stalls a checkpoint". Zero
	// until the first checkpoint completes.
	//
	// Since the obs subsystem landed they are computed from the
	// detect_check_ns histogram (power-of-two buckets, interpolated
	// within the matched bucket — exact to a factor of two) over the
	// whole run, not from the old exact 4096-checkpoint ring. The
	// field surface is kept for compatibility; consumers needing
	// full bucket resolution should read the histogram through
	// Config.Obs instead.
	CheckP50, CheckP99 time.Duration
	// Resets is the number of shard-local recovery resets applied
	// (RequestReset), and ResetDropped the total buffered events those
	// resets discarded unreplayed. Checks keeps advancing while resets
	// are applied — that progress is how tests observe that recovery
	// never stops the world.
	Resets, ResetDropped int
}

// New builds a detector over the given history database and monitors,
// and takes the initial checkpoint snapshots. Create the detector
// before starting the workload so the first segment is anchored at a
// known state. Checkpoints drain only the shards of the monitors
// given here: a monitor recording into db but listed with no detector
// keeps buffering its events (see history.DB.DrainMonitorUpTo), so every
// recording monitor should be covered by some detector.
func New(db *history.DB, cfg Config, mons ...*monitor.Monitor) *Detector {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	d := &Detector{
		cfg:  cfg,
		db:   db,
		mons: make([]*monState, 0, len(mons)),
	}
	d.byName = make(map[string]int, len(mons))
	for _, m := range mons {
		m.Freeze()
		prev := m.Snapshot()
		m.Thaw()
		d.byName[m.Name()] = len(d.mons)
		d.mons = append(d.mons, &monState{
			mon:  m,
			prev: prev,
			rl:   checklists.NewRequestList(m.Spec()),
		})
	}
	d.met = newDetMetrics(cfg.Obs)
	if cfg.HealthEvery > 0 && cfg.Obs != nil && cfg.Exporter != nil {
		// Health emission needs all three legs: a cadence, a registry to
		// snapshot, and an exporter to carry the record — no type sniff:
		// ConsumeHealth is part of the TraceExporter contract.
		d.health = cfg.Exporter
	}
	if len(cfg.Rules) > 0 && d.health != nil {
		eng, err := obsrules.New(cfg.Obs, cfg.Rules...)
		if err != nil {
			// Static config, programming error: fail loudly at
			// construction rather than silently not watching.
			panic("detect: invalid Config.Rules: " + err.Error())
		}
		d.rules = eng
		d.resetFor = make(map[string]string, len(cfg.Rules))
		for _, r := range cfg.Rules {
			if r.ResetMonitor != "" {
				d.resetFor[r.Name] = r.ResetMonitor
			}
		}
	}
	return d
}

// NewDefault is New with the paper-faithful HoldWorld behaviour.
func NewDefault(db *history.DB, cfg Config, mons ...*monitor.Monitor) *Detector {
	cfg.HoldWorld = true
	return New(db, cfg, mons...)
}

// workers returns the effective checkpoint pool size for n monitors.
func (d *Detector) workers(n int) int {
	w := d.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CheckNow runs one checkpoint (all three algorithms) over every
// monitor and returns the violations found at this checkpoint.
// Violations are reported in monitor order regardless of worker
// scheduling, so the parallel pipeline yields the same violation set
// (and order) as a serial pass.
//
// Pending shard-local recovery resets (RequestReset) are applied at
// both checkpoint boundaries while the checkpoint lock is held — never
// inside the checkpoint — so a reset can never interleave with an
// in-flight snapshot, drain or batched replay of the same shard.
func (d *Detector) CheckNow() []rules.Violation {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.applyResetsLocked()
	out := d.checkLocked()
	// A violation found by this checkpoint reaches OnViolation (and so
	// a recovery manager) synchronously above; its reset request lands
	// here, before the checkpoint returns. Requests enqueued after
	// this drain are picked up by their own detached goroutines (see
	// RequestReset) as soon as the lock frees.
	d.applyResetsLocked()
	// Health snapshots interleave with checkpoints, never run inside
	// one — captured here the record also reflects this checkpoint's
	// own counters. The same snapshot feeds the self-watching rules,
	// whose firing transitions may enqueue further resets …
	d.maybeEmitHealthLocked()
	// … which this final drain applies, so a rule-driven reset lands
	// before the checkpoint that fired it returns, same as one
	// requested from OnViolation.
	d.applyResetsLocked()
	return out
}

// checkLocked is CheckNow's checkpoint body; the caller holds d.mu.
func (d *Detector) checkLocked() []rules.Violation {
	start := d.cfg.Clock.Now()
	perMon := make([][]rules.Violation, len(d.mons))
	events := make([]int, len(d.mons))

	if d.cfg.HoldWorld {
		// Two-phase barrier (§4): stop the whole world, so the checkpoint
		// observes one consistent global state, and capture every
		// snapshot against it …
		for _, ms := range d.mons {
			ms.mon.Freeze()
		}
		lastSeq := d.db.LastSeq()
		snaps := make([]state.Snapshot, len(d.mons))
		for k, ms := range d.mons {
			snap := ms.mon.Snapshot()
			snap.LastSeq = lastSeq
			snaps[k] = snap
			// §4: the database keeps the checkpoint states alongside the
			// event sequence (retained only in full-trace configurations).
			d.db.AppendState(snap)
		}
		now := d.cfg.Clock.Now()
		// Each worker drains its monitor's shard up to the frozen
		// horizon and replays it while the world is still held, as the
		// paper's prototype does.
		d.runPool(len(d.mons), func(k int) {
			ms := d.mons[k]
			perMon[k], events[k] = d.replayMonitor(ms,
				d.batchDrain(ms.mon.Name(), lastSeq), snaps[k], now)
		})
		// Extras run while the world is still frozen, as before.
		for _, extra := range d.cfg.Extra {
			perMon = append(perMon, extra.Check(now))
		}
		for _, ms := range d.mons {
			ms.mon.Thaw()
		}
	} else {
		// Per-monitor mode: each worker freezes only its own monitor and
		// never stops an unrelated one. The freeze covers only the
		// snapshot and fixing the checkpoint horizon — the drain and the
		// replay run while the monitor keeps executing, since events
		// recorded after the thaw carry sequence numbers beyond the
		// horizon and stay buffered for the next checkpoint.
		now := d.cfg.Clock.Now()
		frozen := make([]time.Duration, len(d.mons))
		d.runPool(len(d.mons), func(k int) {
			ms := d.mons[k]
			ms.mon.Freeze()
			t0 := d.cfg.Clock.Now()
			snap := ms.mon.Snapshot()
			horizon := d.db.LastSeq()
			snap.LastSeq = horizon
			d.db.AppendState(snap)
			frozen[k] = d.cfg.Clock.Now().Sub(t0)
			ms.mon.Thaw()
			perMon[k], events[k] = d.replayMonitor(ms,
				d.batchDrain(ms.mon.Name(), horizon), snap, now)
		})
		for _, f := range frozen {
			d.stats.FrozenFor += f
			d.met.freezeNs.Observe(f.Nanoseconds())
		}
		// Duplicated rather than hoisted below the if/else: the HoldWorld
		// branch must run extras before thawing, this one has no frozen
		// world to order against.
		for _, extra := range d.cfg.Extra {
			perMon = append(perMon, extra.Check(now))
		}
	}

	var out []rules.Violation
	for _, vs := range perMon {
		out = append(out, vs...)
	}
	for _, n := range events {
		d.stats.Events += n
		d.met.eventsReplayed.Add(int64(n))
	}
	elapsed := d.cfg.Clock.Now().Sub(start)
	if d.cfg.HoldWorld {
		// The world was stopped for the whole checkpoint; per-monitor
		// mode accumulated its individual freeze windows above.
		d.stats.FrozenFor += elapsed
		d.met.freezeNs.Observe(elapsed.Nanoseconds())
	}
	d.met.checkNs.Observe(elapsed.Nanoseconds())
	d.met.checks.Inc()
	d.met.violations.Add(int64(len(out)))
	d.stats.Checks++
	d.stats.Violations += len(out)
	for i := range out {
		out[i].Phase = "periodic"
		d.found = append(d.found, out[i])
		if d.cfg.OnViolation != nil {
			d.cfg.OnViolation(out[i])
		}
	}
	return out
}

// batchDrain returns a drain function pulling the named monitor's
// buffered events up to the checkpoint horizon in Config.BatchSize
// slices (one unbounded batch when BatchSize is zero).
func (d *Detector) batchDrain(name string, horizon int64) func() (event.Seq, bool) {
	return func() (event.Seq, bool) {
		return d.db.DrainMonitorUpTo(name, horizon, d.cfg.BatchSize)
	}
}

// runPool applies fn to every index in [0, n) through the bounded
// worker pool and waits for all of them. fn for different indices runs
// concurrently; each index runs exactly once.
func (d *Detector) runPool(n int, fn func(k int)) {
	if n == 0 {
		return
	}
	w := d.workers(n)
	if w == 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for k := range next {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
}

// replayMonitor runs Algorithms 1–3 for one monitor's segment —
// delivered by drain in one or more batches — and advances its
// cross-checkpoint state. The checking lists are seeded once from the
// previous snapshot and replay every batch incrementally (the
// amortised-seeding half of batched checkpoints). Each batch is handed
// off (see handOff) as soon as it is replayed, so a batched checkpoint
// holds one batch at a time. Within a checkpoint it is called by
// exactly one worker per monitor; the checkpoint lock held by
// CheckNow orders these calls across checkpoints.
func (d *Detector) replayMonitor(ms *monState, drain func() (event.Seq, bool), cur state.Snapshot, now time.Time) ([]rules.Violation, int) {
	spec := ms.mon.Spec()

	// Algorithm-1 Step 1 (+ Algorithm-2 Step 1 for coordinators): seed
	// from the previous snapshot and replay the segment batch by batch.
	lists := checklists.FromSnapshot(spec, ms.prev, ms.tot.sends, ms.tot.recvs)
	var out []rules.Violation
	events := 0
	for {
		seg, more := drain()
		if spec.Kind == monitor.ResourceAllocator {
			// The request list interleaves its findings with replay, so
			// allocators step event by event.
			for i := range seg {
				lists.Apply(&seg[i])
				out = append(out, ms.rl.Apply(&seg[i])...)
			}
		} else {
			lists.Replay(seg)
		}
		events += len(seg)
		d.handOff(ms.mon.Name(), seg)
		if !more {
			break
		}
	}
	out = append(out, lists.Violations()...)

	// Step 2: reconstruction vs reality, then timers.
	out = append(out, lists.CompareWith(cur)...)
	out = append(out, lists.CheckTimers(now, d.cfg.Tmax, d.cfg.Tio)...)
	if spec.Kind == monitor.ResourceAllocator {
		out = append(out, ms.rl.CheckTimers(now, d.cfg.Tlimit)...)
	}

	ms.tot = counts{sends: lists.Sends, recvs: lists.Recvs}
	ms.prev = cur
	return out, events
}

// handOff passes one replayed segment to its next owner: the exporter,
// which recycles the slab once its sink has written it, or — with no
// exporter — straight back to the segment pool. Either way the caller
// must not touch seg afterwards.
func (d *Detector) handOff(monitor string, seg event.Seq) {
	if d.cfg.Exporter != nil {
		d.cfg.Exporter.Consume(monitor, seg)
		return
	}
	history.Recycle(seg)
}

// Run drives the periodic checking routine: it checks every monitor
// every Interval until ctx is cancelled, then performs one final check
// so no recorded events go unchecked (and, when an Exporter is
// configured, flushes it so the exported trace is complete through
// that final checkpoint). With Interval <= 0 only the final check
// runs. It returns every violation found so far, as Violations does.
func (d *Detector) Run(ctx context.Context) []rules.Violation {
	defer func() {
		if d.cfg.Exporter != nil {
			_ = d.cfg.Exporter.Flush()
		}
	}()
	for {
		var tick <-chan time.Time // nil without an Interval: never fires
		if d.cfg.Interval > 0 {
			tick = d.cfg.Clock.After(d.cfg.Interval)
		}
		select {
		case <-ctx.Done():
			d.CheckNow()
			return d.Violations()
		case <-tick:
			d.CheckNow()
		}
	}
}

// Violations returns every violation found so far, in detection order.
func (d *Detector) Violations() []rules.Violation {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]rules.Violation(nil), d.found...)
}

// Stats returns a copy of the detector's activity counters, with the
// checkpoint-latency percentiles computed from the detect_check_ns
// histogram (see the CheckP50 field note).
func (d *Detector) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.CheckP50 = time.Duration(d.met.checkNs.Quantile(0.50))
	st.CheckP99 = time.Duration(d.met.checkNs.Quantile(0.99))
	return st
}
