package experiment

import (
	"context"
	"fmt"
	"time"

	"robustmon/internal/apps/allocator"
	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/apps/kvstore"
	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// Workload names one of the three monitor-class workloads of the E2
// overhead experiment (Table 1 measures the coordinator; we sweep all
// three classes).
type Workload string

// The three workloads, one per monitor class.
const (
	WorkloadCoordinator Workload = "coordinator"
	WorkloadAllocator   Workload = "allocator"
	WorkloadManager     Workload = "manager"
)

// AllWorkloads returns the three workloads in presentation order.
func AllWorkloads() []Workload {
	return []Workload{WorkloadCoordinator, WorkloadAllocator, WorkloadManager}
}

// OverheadConfig parameterises the E2 experiment.
type OverheadConfig struct {
	// Intervals are the checking intervals T to sweep (Table 1's
	// columns; the paper uses 0.5 s … 3.0 s).
	Intervals []time.Duration
	// Workloads selects the monitor classes to measure.
	Workloads []Workload
	// Ops is the number of monitor procedure calls per measurement run.
	Ops int
	// Procs is the number of concurrent processes driving them.
	Procs int
	// Repeats is the number of measurement repetitions averaged per
	// cell.
	Repeats int
	// SuspendOverhead, when positive, simulates the fixed
	// per-checkpoint cost of the paper's prototype, whose checking
	// routine suspended every user process via 2001-era JVM thread
	// suspension — a platform cost a modern Go runtime does not have
	// (Freeze takes microseconds). Each hold-world checkpoint then
	// stalls this long while the world is frozen (suspendChecker).
	// Zero measures the native Go cost.
	SuspendOverhead time.Duration
}

// DefaultOverheadConfig mirrors the paper's sweep at full scale; the
// benchmarks use a scaled-down copy.
func DefaultOverheadConfig() OverheadConfig {
	return OverheadConfig{
		Intervals: []time.Duration{
			500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second,
		},
		Workloads: AllWorkloads(),
		Ops:       20000,
		Procs:     8,
		Repeats:   3,
	}
}

// OverheadRow is one cell of Table 1.
type OverheadRow struct {
	Workload Workload
	Interval time.Duration
	// Base is the mean wall time of the workload on a bare monitor
	// (no recording, no checking) — the "without extension" column.
	Base time.Duration
	// Extended is the mean wall time with full history recording and
	// the periodic detector running at Interval.
	Extended time.Duration
	// Ratio is Extended/Base — the paper's "ratio for overheads".
	Ratio float64
	// Checks is the number of checkpoints that ran during the extended
	// runs (summed over repeats).
	Checks int
	// Events is the number of events replayed (summed over repeats).
	Events int
	// Violations must be zero: these are fault-free runs.
	Violations int
}

// RunOverhead executes the E2 sweep and returns one row per
// (workload, interval) cell. The baseline is measured once per
// workload and shared across that workload's rows.
func RunOverhead(cfg OverheadConfig) ([]OverheadRow, error) {
	if cfg.Ops <= 0 || cfg.Procs <= 0 || cfg.Repeats <= 0 {
		return nil, fmt.Errorf("experiment: bad overhead config %+v", cfg)
	}
	var rows []OverheadRow
	for _, w := range cfg.Workloads {
		var base Sample
		for r := 0; r < cfg.Repeats; r++ {
			d, err := runWorkload(w, cfg.Ops, cfg.Procs, nil)
			if err != nil {
				return nil, fmt.Errorf("experiment: baseline %s: %w", w, err)
			}
			base.Add(d)
		}
		for _, ivl := range cfg.Intervals {
			var ext Sample
			checks, events, viols := 0, 0, 0
			for r := 0; r < cfg.Repeats; r++ {
				ex := &extension{interval: ivl, suspend: cfg.SuspendOverhead}
				d, err := runWorkload(w, cfg.Ops, cfg.Procs, ex)
				if err != nil {
					return nil, fmt.Errorf("experiment: extended %s @%v: %w", w, ivl, err)
				}
				ext.Add(d)
				checks += ex.stats.Checks
				events += ex.stats.Events
				viols += ex.stats.Violations
			}
			rows = append(rows, OverheadRow{
				Workload:   w,
				Interval:   ivl,
				Base:       base.Mean(),
				Extended:   ext.Mean(),
				Ratio:      Ratio(ext.Mean(), base.Mean()),
				Checks:     checks,
				Events:     events,
				Violations: viols,
			})
		}
	}
	return rows, nil
}

// extension carries the detection stack of one extended measurement.
type extension struct {
	interval time.Duration
	suspend  time.Duration
	stats    detect.Stats
}

// suspendChecker is the E2 model of the prototype's process
// suspension (OverheadConfig.SuspendOverhead). A hold-world checkpoint
// runs its Extra checkers after replay and before the thaw, so the
// stall lands inside the frozen window. It sleeps in real time,
// deliberately not on the detector's clock: it models a wall-clock
// stall of the frozen world.
type suspendChecker time.Duration

// Check stalls and reports nothing.
func (s suspendChecker) Check(time.Time) []rules.Violation {
	time.Sleep(time.Duration(s))
	return nil
}

// MeasureWorkload runs one measurement cell and returns its wall time
// and detector stats. A non-positive interval measures the bare
// baseline (no recording, no checking; the returned stats are zero).
// The benchmark suite uses it to regenerate Table 1 cells one at a
// time.
func MeasureWorkload(w Workload, ops, procs int, interval time.Duration) (time.Duration, detect.Stats, error) {
	if interval <= 0 {
		d, err := runWorkload(w, ops, procs, nil)
		return d, detect.Stats{}, err
	}
	ex := &extension{interval: interval}
	d, err := runWorkload(w, ops, procs, ex)
	return d, ex.stats, err
}

// runWorkload runs one measurement: ops monitor operations across procs
// processes on the given workload's monitor class. ex == nil measures
// the bare baseline; otherwise the full recording+checking stack runs
// at ex.interval.
func runWorkload(w Workload, ops, procs int, ex *extension) (time.Duration, error) {
	var monOpts []monitor.Option
	var db *history.DB
	if ex != nil {
		db = history.New()
		monOpts = append(monOpts, monitor.WithRecorder(db))
	}

	var body func(r *proc.Runtime) error
	var mon *monitor.Monitor
	switch w {
	case WorkloadCoordinator:
		buf, err := boundedbuffer.New(4, boundedbuffer.WithMonitorOptions(monOpts...))
		if err != nil {
			return 0, err
		}
		mon = buf.Monitor()
		body = coordinatorBody(buf, ops, procs)
	case WorkloadAllocator:
		var recOpts []monitor.Option
		if ex != nil {
			// Allocators additionally get the real-time order checker in
			// front of the database, as the paper's strategy prescribes.
			rt, err := detect.NewRealTime(db, []monitor.Spec{allocator.Spec("allocator")}, nil)
			if err != nil {
				return 0, err
			}
			recOpts = append(recOpts, monitor.WithRecorder(rt))
		}
		alloc, err := allocator.New(2, allocator.WithMonitorOptions(recOpts...))
		if err != nil {
			return 0, err
		}
		mon = alloc.Monitor()
		body = allocatorBody(alloc, ops, procs)
	case WorkloadManager:
		store, err := kvstore.New(kvstore.WithMonitorOptions(monOpts...))
		if err != nil {
			return 0, err
		}
		mon = store.Monitor()
		body = managerBody(store, ops, procs)
	default:
		return 0, fmt.Errorf("experiment: unknown workload %q", w)
	}

	var det *detect.Detector
	var cancel context.CancelFunc
	detDone := make(chan struct{})
	if ex != nil {
		cfg := detect.Config{
			Interval:  ex.interval,
			Tmax:      time.Hour,
			Tio:       time.Hour,
			Tlimit:    time.Hour,
			Clock:     clock.Real{},
			HoldWorld: true,
		}
		if ex.suspend > 0 {
			cfg.Extra = []detect.Checker{suspendChecker(ex.suspend)}
		}
		det = detect.New(db, cfg, mon)
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		go func() {
			defer close(detDone)
			det.Run(ctx)
		}()
	} else {
		close(detDone)
	}

	r := proc.NewRuntime()
	start := time.Now()
	err := body(r)
	elapsed := time.Since(start)
	if cancel != nil {
		cancel()
		<-detDone
		ex.stats = det.Stats()
		if ex.stats.Violations > 0 {
			vs := det.Violations()
			return 0, fmt.Errorf("experiment: fault-free run reported %d violations (first: %v)",
				ex.stats.Violations, vs[0])
		}
	}
	return elapsed, err
}

func coordinatorBody(buf *boundedbuffer.Buffer, ops, procs int) func(*proc.Runtime) error {
	return func(r *proc.Runtime) error {
		pairs := ops / 2
		producers := procs / 2
		if producers == 0 {
			producers = 1
		}
		perProducer := pairs / producers
		for i := 0; i < producers; i++ {
			r.Spawn("producer", func(p *proc.P) {
				for j := 0; j < perProducer; j++ {
					if err := buf.Send(p, j); err != nil {
						return
					}
				}
			})
			r.Spawn("consumer", func(p *proc.P) {
				for j := 0; j < perProducer; j++ {
					if _, err := buf.Receive(p); err != nil {
						return
					}
				}
			})
		}
		r.Join()
		return nil
	}
}

func allocatorBody(alloc *allocator.Allocator, ops, procs int) func(*proc.Runtime) error {
	return func(r *proc.Runtime) error {
		cycles := ops / 2 / procs
		if cycles == 0 {
			cycles = 1
		}
		for i := 0; i < procs; i++ {
			r.Spawn("user", func(p *proc.P) {
				for j := 0; j < cycles; j++ {
					if err := alloc.Acquire(p); err != nil {
						return
					}
					if err := alloc.Release(p); err != nil {
						return
					}
				}
			})
		}
		r.Join()
		return nil
	}
}

func managerBody(store *kvstore.Store, ops, procs int) func(*proc.Runtime) error {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	return func(r *proc.Runtime) error {
		per := ops / 2 / procs
		if per == 0 {
			per = 1
		}
		for i := 0; i < procs; i++ {
			i := i
			r.Spawn("user", func(p *proc.P) {
				for j := 0; j < per; j++ {
					key := keys[(i+j)%len(keys)]
					if err := store.Put(p, key, "v"); err != nil {
						return
					}
					if _, _, err := store.Get(p, key); err != nil {
						return
					}
				}
			})
		}
		r.Join()
		return nil
	}
}

// Table1 renders the rows in the paper's Table 1 layout: one row per
// checking interval, one ratio column per workload.
func Table1(rows []OverheadRow) *Table {
	byIvl := make(map[time.Duration]map[Workload]OverheadRow)
	var ivls []time.Duration
	var wls []Workload
	seenW := make(map[Workload]bool)
	for _, r := range rows {
		if byIvl[r.Interval] == nil {
			byIvl[r.Interval] = make(map[Workload]OverheadRow)
			ivls = append(ivls, r.Interval)
		}
		byIvl[r.Interval][r.Workload] = r
		if !seenW[r.Workload] {
			seenW[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	header := []string{"checking interval"}
	for _, w := range wls {
		header = append(header,
			string(w)+" base", string(w)+" ext", string(w)+" ratio")
	}
	t := NewTable(header...)
	for _, ivl := range ivls {
		row := []string{ivl.String()}
		for _, w := range wls {
			c := byIvl[ivl][w]
			row = append(row, c.Base.String(), c.Extended.String(), FormatRatio(c.Ratio))
		}
		t.AddRow(row...)
	}
	return t
}
