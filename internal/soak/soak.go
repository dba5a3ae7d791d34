// Package soak is the generative long-horizon campaign harness: one
// seed expands into a randomized composition of a scripted workload
// (internal/workload over internal/apps), a periodic detector, a
// streaming WAL exporter with background compaction, and an advancing
// retention floor — all running concurrently — and the run is judged
// not by a golden output but by conservation invariants that must hold
// for every seed:
//
//   - every event the exporter accepted is either present in the final
//     replay byte-identically, or lies strictly below the store's
//     retention horizon (retention may drop, never corrupt);
//   - the newest tombstone's cumulative event count equals exactly the
//     number of accepted events missing from the replay (the tombstone
//     is an honest receipt, not an estimate);
//   - every recovery marker the detector emitted is either replayed or
//     below the horizon, and no marker at-or-above the horizon is
//     orphaned;
//   - replaying the final directory twice yields byte-identical traces
//     (the store is deterministic at rest).
//
// A failing campaign reports its seed and the exact command that
// replays it (cmd/monsoak), so soak failures found in CI reduce to a
// one-line local repro. The harness is deliberately built from the
// same public seams the production pipeline uses — detect.Config.
// Exporter, export.WALConfig.CompactEvery, compact.Config.RetainSeq — so
// an invariant violation here is a bug in the shipped composition, not
// in test-only plumbing.
package soak

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustmon/internal/apps/allocator"
	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/apps/kvstore"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/compact"
	"robustmon/internal/export/index"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
	"robustmon/internal/workload"
)

// Config parameterises one campaign.
type Config struct {
	// Seed selects the campaign: app, fault, detector configuration,
	// rotation/compaction/retention cadence are all derived from it.
	Seed int64
	// Ops is the approximate number of monitor operations the workload
	// performs (default 1200). CI short mode uses the default; a
	// longer-running soak raises it.
	Ops int
	// Dir, when set, is the export directory to use — it is kept after
	// the run (for post-mortems). Empty means a temp dir, removed on
	// success and kept on failure.
	Dir string
	// Log, when set, receives one-line progress notes.
	Log io.Writer
}

// Report summarises a completed (passing) campaign.
type Report struct {
	// Seed is the campaign seed (echoed for logs).
	Seed int64
	// App is the workload the seed picked: coordinator, allocator or
	// manager.
	App string
	// Fault names the injected fault kind, or "none".
	Fault string
	// Procs is the number of scripted processes.
	Procs int
	// Accepted is the number of events the exporter accepted — the
	// conservation baseline.
	Accepted int64
	// Replayed is the number of events the final replay returned.
	Replayed int64
	// Dropped is Accepted − Replayed: events reclaimed by retention
	// (every one verified to lie below Horizon).
	Dropped int64
	// Horizon is the final retention horizon (0 when retention never
	// dropped anything).
	Horizon int64
	// Compactions counts background passes launched while the run was
	// live (the final offline pass is not included).
	Compactions int64
	// Resets is how many shard-local recovery resets were applied.
	Resets int
	// Violations is how many rule violations the detector reported.
	Violations int
	// Markers is how many recovery markers survived in the replay.
	Markers int
	// Dir is the export directory the campaign used (already removed
	// unless Config.Dir was set).
	Dir string
}

// String renders the one-line campaign summary monsoak prints.
func (r *Report) String() string {
	return fmt.Sprintf(
		"seed=%d app=%s fault=%s procs=%d accepted=%d replayed=%d dropped=%d horizon=%d compactions=%d resets=%d violations=%d",
		r.Seed, r.App, r.Fault, r.Procs, r.Accepted, r.Replayed, r.Dropped,
		r.Horizon, r.Compactions, r.Resets, r.Violations)
}

// ReplayCommand is the exact command that reruns one seed locally —
// printed alongside every failure so a CI soak find is a one-liner to
// reproduce.
func ReplayCommand(seed int64) string {
	return fmt.Sprintf("go run ./cmd/monsoak -seed %d", seed)
}

// failf wraps a campaign failure with its seed and replay command.
func failf(seed int64, format string, args ...any) error {
	return fmt.Errorf("soak: seed %d: %s\n  replay: %s",
		seed, fmt.Sprintf(format, args...), ReplayCommand(seed))
}

// ledger sits at the detect.TraceExporter seam: it records everything
// the detector hands to the export pipeline (the conservation
// baseline) and forwards to the real exporter. With the Block policy
// beneath it, every recorded event is durably written unless the sink
// errors — which the campaign checks separately.
type ledger struct {
	inner *export.Exporter

	// maxSeq is the highest accepted sequence number — the moving
	// anchor the advancing retention floors are computed from. Atomic:
	// the compaction goroutine reads it while Consume writes it.
	maxSeq atomic.Int64

	mu      sync.Mutex
	events  map[int64][]byte // seq → single-event binary encoding
	markers []history.RecoveryMarker
}

func newLedger(inner *export.Exporter) *ledger {
	return &ledger{inner: inner, events: make(map[int64][]byte)}
}

func (l *ledger) Consume(mon string, seg event.Seq) {
	l.mu.Lock()
	for _, ev := range seg {
		l.events[ev.Seq] = event.AppendBinary(nil, event.Seq{ev})
		if ev.Seq > l.maxSeq.Load() {
			l.maxSeq.Store(ev.Seq)
		}
	}
	l.mu.Unlock()
	l.inner.Consume(mon, seg)
}

func (l *ledger) ConsumeMarker(m history.RecoveryMarker) {
	l.mu.Lock()
	l.markers = append(l.markers, m)
	l.mu.Unlock()
	l.inner.ConsumeMarker(m)
}

func (l *ledger) ConsumeHealth(h obs.HealthRecord) { l.inner.ConsumeHealth(h) }
func (l *ledger) ConsumeAlert(a obsrules.Alert)    { l.inner.ConsumeAlert(a) }
func (l *ledger) Flush() error                     { return l.inner.Flush() }

// campaign is the seed-derived plan: everything random is drawn up
// front on one goroutine, so the concurrent phase touches no shared
// rng.
type campaign struct {
	app          string
	fault        faults.Kind // 0 = none
	procs        int
	opsPerProc   int
	capacity     int // buffer capacity / allocator units
	maxFileBytes int64
	chunkEvents  int
	compactEvery int
	interval     time.Duration
	holdWorld    bool
	batchSize    int
	healthEvery  time.Duration
	withIndex    bool
	resetBudget  int32
	// floorFracs are the retention-floor fractions consecutive
	// background passes apply against the ledger's current maxSeq.
	floorFracs []float64
	// finalFrac is the offline pass's retention fraction.
	finalFrac float64
}

// plan expands a seed into a campaign.
func plan(seed int64, ops int) campaign {
	rng := rand.New(rand.NewSource(seed))
	if ops <= 0 {
		ops = 1200
	}
	c := campaign{
		procs:        4 + rng.Intn(5),
		capacity:     2 + rng.Intn(5),
		maxFileBytes: int64(2<<10 + rng.Intn(14<<10)),
		chunkEvents:  64 << rng.Intn(5), // 64..1024
		compactEvery: 2 + rng.Intn(4),
		interval:     time.Duration(1+rng.Intn(4)) * time.Millisecond,
		holdWorld:    rng.Intn(2) == 0,
		withIndex:    rng.Intn(2) == 0,
		resetBudget:  int32(rng.Intn(4)),
		finalFrac:    0.25 + 0.5*rng.Float64(),
	}
	if rng.Intn(2) == 0 {
		c.batchSize = 64 << rng.Intn(3)
	}
	if rng.Intn(2) == 0 {
		c.healthEvery = time.Duration(2+rng.Intn(8)) * time.Millisecond
	}
	c.opsPerProc = ops / c.procs
	if c.opsPerProc < 1 {
		c.opsPerProc = 1
	}
	for i := 0; i < 64; i++ {
		c.floorFracs = append(c.floorFracs, 0.2+0.6*rng.Float64())
	}
	switch rng.Intn(3) {
	case 0:
		c.app = "coordinator"
		// Only the non-blocking procedure-level kinds: the spurious-delay
		// bugs park a process forever, which tests detection, not the
		// store — and the soak's subject is the store.
		c.fault = []faults.Kind{0, faults.ReceiveOvertake, faults.SendOverflow}[rng.Intn(3)]
	case 1:
		c.app = "allocator"
		c.capacity = c.procs + 2 // a leaked unit must not deadlock the rest
		c.fault = []faults.Kind{0, faults.ReleaseWithoutAcquire, faults.ResourceNeverReleased}[rng.Intn(3)]
	default:
		c.app = "manager"
	}
	return c
}

// Run executes one campaign and verifies the conservation invariants.
// A nil error means every invariant held; the error of a failing run
// carries the seed and the replay command.
func Run(cfg Config) (*Report, error) {
	c := plan(cfg.Seed, cfg.Ops)
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	dir := cfg.Dir
	keep := dir != ""
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "robustmon-soak-*")
		if err != nil {
			return nil, err
		}
	}
	faultName := "none"
	if c.fault != 0 {
		faultName = c.fault.String()
	}
	logf("soak: seed=%d app=%s fault=%s procs=%d ops/proc=%d dir=%s",
		cfg.Seed, c.app, faultName, c.procs, c.opsPerProc, dir)

	reg := obs.NewRegistry()
	var seal []export.SealedSink
	var maint *index.Maintainer
	if c.withIndex {
		maint = index.NewMaintainer(dir)
		seal = append(seal, maint)
	}
	var led *ledger
	var passIdx atomic.Int64
	sink, err := export.NewWALSink(dir, export.WALConfig{
		MaxFileBytes: c.maxFileBytes,
		OnSeal:       seal,
		CompactEvery: c.compactEvery,
		Compact: func(dir string) error {
			// The floor advances with the run: each background pass
			// retains only the newest fraction of what has been accepted
			// so far, so rotation, compaction, retention and recovery all
			// overlap while the workload is still producing.
			i := int(passIdx.Add(1)-1) % len(c.floorFracs)
			floor := int64(float64(led.maxSeq.Load()) * c.floorFracs[i])
			_, err := compact.Dir(dir, compact.Config{
				RetainSeq:   floor,
				ChunkEvents: c.chunkEvents,
				Obs:         reg,
			})
			return err
		},
		Obs: reg,
	})
	if err != nil {
		return nil, err
	}

	exp := export.New(sink, export.Config{Policy: export.Block, Obs: reg})
	led = newLedger(exp)

	db := history.New()
	rec := monitor.WithRecorder(db)
	var mon *monitor.Monitor
	var buf *boundedbuffer.Buffer
	var alloc *allocator.Allocator
	var store *kvstore.Store
	var inj *faults.Injector
	if c.fault != 0 {
		inj = faults.NewInjector(c.fault, faults.FireEveryTime())
	}
	switch c.app {
	case "coordinator":
		opts := []boundedbuffer.Option{boundedbuffer.WithMonitorOptions(rec)}
		if inj != nil {
			opts = append(opts, boundedbuffer.WithInjector(inj))
		}
		buf, err = boundedbuffer.New(c.capacity, opts...)
		if err != nil {
			return nil, err
		}
		mon = buf.Monitor()
	case "allocator":
		alloc, err = allocator.New(c.capacity, allocator.WithMonitorOptions(rec))
		if err != nil {
			return nil, err
		}
		mon = alloc.Monitor()
	default:
		store, err = kvstore.New(kvstore.WithMonitorOptions(rec))
		if err != nil {
			return nil, err
		}
		mon = store.Monitor()
	}

	// Violations trigger real shard-local recovery, capped so a noisy
	// fault cannot thrash the store with resets faster than it refills.
	var det *detect.Detector
	resetsLeft := atomic.Int32{}
	resetsLeft.Store(c.resetBudget)
	det = detect.New(db, detect.Config{
		Interval:    c.interval,
		HoldWorld:   c.holdWorld,
		BatchSize:   c.batchSize,
		Exporter:    led,
		Obs:         reg,
		HealthEvery: c.healthEvery,
		OnViolation: func(v rules.Violation) {
			if resetsLeft.Add(-1) >= 0 {
				det.RequestReset(v.Monitor, v)
			}
		},
	}, mon)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan []rules.Violation, 1)
	go func() { runDone <- det.Run(ctx) }()

	gen := workload.NewGen(workload.Config{
		Seed: cfg.Seed, Procs: c.procs, OpsPerProc: c.opsPerProc, Think: 32,
	})
	rt := proc.NewRuntime()
	workDone := make(chan struct{})
	go func() {
		defer close(workDone)
		switch c.app {
		case "coordinator":
			if inj != nil {
				inj.Arm()
			}
			workload.RunCoordinator(rt, buf, gen.Coordinator())
		case "allocator":
			if inj != nil {
				inj.Arm()
				rt.Spawn("rogue", func(p *proc.P) {
					switch c.fault {
					case faults.ReleaseWithoutAcquire:
						if inj.TryFire() {
							_ = alloc.Release(p)
						}
					case faults.ResourceNeverReleased:
						if inj.TryFire() {
							_ = alloc.Acquire(p)
							return // never releases
						}
					}
				})
			}
			workload.RunAllocator(rt, alloc, gen.Allocator())
		default:
			workload.RunManager(rt, store, gen.Manager())
		}
	}()

	// A wedged workload — an injected fault starving the scripts, or a
	// recovery reset that aborted a producer and stranded its consumers
	// — is aborted, not failed: the store invariants are still checked
	// over whatever was produced. Wedge means no export progress for a
	// stretch (drains run at millisecond cadence, so a live workload
	// advances led.maxSeq constantly), with a hard cap as backstop.
	func() {
		hardStop := time.After(2 * time.Minute)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		last, lastAt := int64(-1), time.Now()
		for {
			select {
			case <-workDone:
				return
			case <-hardStop:
			case <-tick.C:
				if cur := led.maxSeq.Load(); cur != last {
					last, lastAt = cur, time.Now()
					continue
				}
				if time.Since(lastAt) < 3*time.Second {
					continue
				}
			}
			logf("soak: seed=%d workload wedged, aborting stragglers", cfg.Seed)
			rt.AbortAll()
			<-workDone
			return
		}
	}()
	rt.AbortAll() // release any fault-parked process before the final checkpoint
	cancel()
	violations := <-runDone
	stats := det.Stats()
	if err := exp.Close(); err != nil {
		if keep {
			return nil, failf(cfg.Seed, "exporter close: %v (dir kept at %s)", err, dir)
		}
		return nil, failf(cfg.Seed, "exporter close: %v", err)
	}
	es := exp.Stats()
	if es.WriteErrors > 0 {
		return nil, failf(cfg.Seed, "%d sink write errors", es.WriteErrors)
	}
	if maint != nil {
		if err := maint.Err(); err != nil {
			return nil, failf(cfg.Seed, "index maintainer: %v", err)
		}
	}

	// One offline pass over the closed store: every file is eligible
	// (KeepNewest −1), so even a campaign whose background cadence never
	// fired still exercises retention before verification.
	finalFloor := int64(float64(led.maxSeq.Load()) * c.finalFrac)
	if _, err := compact.Dir(dir, compact.Config{
		KeepNewest:  -1,
		RetainSeq:   finalFloor,
		ChunkEvents: c.chunkEvents,
		Obs:         reg,
	}); err != nil {
		return nil, failf(cfg.Seed, "final compaction: %v", err)
	}

	rep := &Report{
		Seed: cfg.Seed, App: c.app, Fault: faultName, Procs: c.procs,
		Compactions: reg.Counter("export_compactions_total").Value(), Resets: stats.Resets,
		Violations: len(violations), Dir: dir,
	}
	if err := verify(cfg.Seed, dir, led, rep); err != nil {
		if !keep {
			err = fmt.Errorf("%w\n  store kept at %s", err, dir)
		}
		return nil, err
	}
	if !keep {
		os.RemoveAll(dir)
	}
	logf("soak: %s", rep)
	return rep, nil
}

// verify replays the finished store and checks every conservation
// invariant against the ledger.
func verify(seed int64, dir string, led *ledger, rep *Report) error {
	replay, err := export.ReadDir(dir)
	if err != nil {
		return failf(seed, "final replay: %v", err)
	}
	again, err := export.ReadDir(dir)
	if err != nil {
		return failf(seed, "second replay: %v", err)
	}
	// Determinism at rest: two replays of the same directory must be
	// byte-identical.
	if !bytes.Equal(event.AppendBinary(nil, replay.Events), event.AppendBinary(nil, again.Events)) {
		return failf(seed, "two replays of the final store differ")
	}
	if replay.CorruptRecords > 0 {
		return failf(seed, "replay skipped %d corrupt records", replay.CorruptRecords)
	}
	horizon := replay.RetentionHorizon()

	led.mu.Lock()
	defer led.mu.Unlock()
	got := make(map[int64][]byte, len(replay.Events))
	for _, ev := range replay.Events {
		if _, dup := got[ev.Seq]; dup {
			return failf(seed, "replay holds two events with seq %d", ev.Seq)
		}
		got[ev.Seq] = event.AppendBinary(nil, event.Seq{ev})
	}
	var missing int64
	for seq, want := range led.events {
		have, ok := got[seq]
		if !ok {
			if seq >= horizon {
				return failf(seed, "accepted event seq %d (>= horizon %d) missing from the replay", seq, horizon)
			}
			missing++
			continue
		}
		if !bytes.Equal(have, want) {
			return failf(seed, "event seq %d replayed with different bytes than accepted", seq)
		}
	}
	// No resurrection: the store may not contain events the exporter
	// never accepted.
	for seq := range got {
		if _, ok := led.events[seq]; !ok {
			return failf(seed, "replay holds event seq %d the exporter never accepted", seq)
		}
	}
	// The tombstone is an exact receipt for what retention removed.
	var tombEvents int64
	for _, t := range replay.Tombstones {
		if t.Horizon == horizon && t.Events > tombEvents {
			tombEvents = t.Events
		}
	}
	if missing != tombEvents {
		return failf(seed, "%d accepted events missing from the replay but the tombstone accounts for %d", missing, tombEvents)
	}
	if missing > 0 && horizon == 0 {
		return failf(seed, "%d events missing with no tombstone in the store", missing)
	}
	// Markers straddling the horizon are never orphaned: every marker
	// the detector emitted is replayed unless retention dropped it, and
	// retention may only drop markers wholly below the horizon.
	type mkey struct {
		mon     string
		horizon int64
	}
	replayed := make(map[mkey]bool, len(replay.Markers))
	for _, m := range replay.Markers {
		replayed[mkey{m.Monitor, m.Horizon}] = true
	}
	for _, m := range led.markers {
		if replayed[mkey{m.Monitor, m.Horizon}] {
			continue
		}
		if m.Horizon >= horizon {
			return failf(seed, "recovery marker %s@%d (>= horizon %d) missing from the replay",
				m.Monitor, m.Horizon, horizon)
		}
	}
	rep.Accepted = int64(len(led.events))
	rep.Replayed = int64(len(replay.Events))
	rep.Dropped = missing
	rep.Horizon = horizon
	rep.Markers = len(replay.Markers)
	return nil
}
