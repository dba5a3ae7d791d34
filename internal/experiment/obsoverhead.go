package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"robustmon/internal/history"
	"robustmon/internal/obs"
)

// E7 — self-observability overhead. The obs registry instruments the
// hottest loop in the system (every DB.Append bumps a counter; every
// drain feeds a histogram and the pool counters), so its cost must be
// measured where it hurts, not asserted. This sweep runs the E6-style
// ingest workload twice — "stripped" (no registry: the handles are nil
// and every increment is one untaken branch) and "instrumented" (a
// live registry wired through history.WithObs) — and reports the
// throughput delta as OverheadPct, which the perf gate bounds. A third
// "increment" row microbenchmarks the bare instrument primitives
// (Counter.Inc + Gauge.Set + Histogram.Observe per op) with a
// MemStats allocation profile, pinning the allocation-free claim:
// its gated ceiling is zero allocs/op (plus measurement-noise floor).

// ObsOverheadConfig parameterises the E7 sweep.
type ObsOverheadConfig struct {
	// Monitors is the shard count of the ingest workload; Producers =
	// Monitors × ProducersPerMonitor goroutines contend on it.
	Monitors            int
	ProducersPerMonitor int
	// EventsPerProducer is how many events each producer records per
	// run.
	EventsPerProducer int
	// DrainEveryEvents is the inline checkpoint rhythm (see
	// RecordPathConfig.DrainEveryEvents).
	DrainEveryEvents int
	// IncrementOps is the iteration count of the increment
	// microbenchmark.
	IncrementOps int
	// Repeats reruns each measurement; elapsed takes the minimum across
	// runs — both modes face the same one-sided scheduler noise, and an
	// overhead ratio of two minima is far more stable than a ratio of
	// two medians when the delta under test is a few percent. The
	// allocation profile also takes the minimum (additive noise).
	Repeats int
}

// DefaultObsOverheadConfig is the sweep cmd/monbench runs for
// -obsoverhead: the E6 acceptance shape (8 monitors, 4 producers
// each) so the overhead is measured under genuine shard contention.
func DefaultObsOverheadConfig() ObsOverheadConfig {
	return ObsOverheadConfig{
		Monitors:            8,
		ProducersPerMonitor: 4,
		EventsPerProducer:   50_000,
		DrainEveryEvents:    4096,
		IncrementOps:        2_000_000,
		Repeats:             3,
	}
}

// ObsOverheadRow is one cell of the E7 sweep.
type ObsOverheadRow struct {
	// Mode is "stripped" (no registry), "instrumented" (live registry
	// on the same workload) or "increment" (bare primitive loop).
	Mode string
	// Monitors is the shard count (0 for the increment row).
	Monitors int
	// Events is the operations measured: recorded events for the
	// workload rows, increment iterations for the increment row.
	Events int64
	// Elapsed is the minimum wall time across repeats.
	Elapsed time.Duration
	// EventsPerSec and NsPerEvent are the throughput pair.
	EventsPerSec float64
	NsPerEvent   float64
	// AllocsPerEvent is the heap allocations per operation. On the
	// increment row this is the gated allocation-free claim; on the
	// workload rows it tracks the record path's profile as in E6.
	AllocsPerEvent float64
	// OverheadPct is the instrumented row's throughput cost relative
	// to the stripped row: (strippedEPS − instrumentedEPS) /
	// strippedEPS × 100. Zero on the other rows. Negative values
	// (instrumented measured faster — pure noise) are reported as is;
	// the gate only bounds the positive direction.
	OverheadPct float64
}

// RunObsOverhead executes the E7 sweep: stripped workload,
// instrumented workload, increment microbenchmark.
func RunObsOverhead(cfg ObsOverheadConfig) ([]ObsOverheadRow, error) {
	if cfg.Monitors <= 0 || cfg.ProducersPerMonitor <= 0 || cfg.EventsPerProducer <= 0 {
		return nil, fmt.Errorf("experiment: bad obs-overhead config %+v", cfg)
	}
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	drainEvery := cfg.DrainEveryEvents
	if drainEvery <= 0 {
		drainEvery = 4096
	}
	incOps := cfg.IncrementOps
	if incOps <= 0 {
		incOps = 2_000_000
	}

	workload := func(instrumented bool) (ObsOverheadRow, error) {
		row := ObsOverheadRow{
			Mode:     "stripped",
			Monitors: cfg.Monitors,
			Events:   int64(cfg.Monitors) * int64(cfg.ProducersPerMonitor) * int64(cfg.EventsPerProducer),
		}
		if instrumented {
			row.Mode = "instrumented"
		}
		elapsed := make([]time.Duration, 0, repeats)
		allocs := make([]float64, 0, repeats)
		// The singleton append mode is the worst case for
		// instrumentation: one counter bump per event, a histogram
		// observation and pool accounting per drain.
		var opts []history.Option
		if instrumented {
			opts = append(opts, history.WithObs(obs.NewRegistry()))
		}
		for i := 0; i < repeats; i++ {
			e, _, ape, err := ingestOnce("append", cfg.Monitors, cfg.ProducersPerMonitor,
				cfg.EventsPerProducer, 0, drainEvery, opts...)
			if err != nil {
				return ObsOverheadRow{}, err
			}
			elapsed = append(elapsed, e)
			allocs = append(allocs, ape)
		}
		row.Elapsed = slices.Min(elapsed)
		row.AllocsPerEvent = slices.Min(allocs)
		if s := row.Elapsed.Seconds(); s > 0 {
			row.EventsPerSec = float64(row.Events) / s
			row.NsPerEvent = float64(row.Elapsed.Nanoseconds()) / float64(row.Events)
		}
		return row, nil
	}

	stripped, err := workload(false)
	if err != nil {
		return nil, err
	}
	instrumented, err := workload(true)
	if err != nil {
		return nil, err
	}
	if stripped.EventsPerSec > 0 {
		instrumented.OverheadPct = (stripped.EventsPerSec - instrumented.EventsPerSec) /
			stripped.EventsPerSec * 100
	}

	increment := ObsOverheadRow{Mode: "increment", Events: int64(incOps)}
	{
		elapsed := make([]time.Duration, 0, repeats)
		allocs := make([]float64, 0, repeats)
		for i := 0; i < repeats; i++ {
			e, ape := obsIncrementOnce(incOps)
			elapsed = append(elapsed, e)
			allocs = append(allocs, ape)
		}
		increment.Elapsed = slices.Min(elapsed)
		increment.AllocsPerEvent = slices.Min(allocs)
		if s := increment.Elapsed.Seconds(); s > 0 {
			increment.EventsPerSec = float64(increment.Events) / s
			increment.NsPerEvent = float64(increment.Elapsed.Nanoseconds()) / float64(increment.Events)
		}
	}

	return []ObsOverheadRow{stripped, instrumented, increment}, nil
}

// obsIncrementOnce measures the bare instrument primitives: per
// iteration one Counter.Inc, one Gauge.Set and one Histogram.Observe
// on pre-resolved handles — exactly the hot-path usage pattern every
// instrumented layer follows. The MemStats delta around the loop is
// the allocation claim under test: zero.
func obsIncrementOnce(ops int) (time.Duration, float64) {
	reg := obs.NewRegistry()
	c := reg.Counter("e7_increment_total")
	g := reg.Gauge("e7_increment_depth")
	h := reg.Histogram("e7_increment_ns")

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Observe(int64(i))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// ObsOverheadTable renders the E7 sweep.
func ObsOverheadTable(rows []ObsOverheadRow) *Table {
	t := NewTable("mode", "monitors", "events", "elapsed", "events/sec", "ns/event", "allocs/event", "overhead %")
	for _, r := range rows {
		t.AddRow(r.Mode, fmt.Sprint(r.Monitors),
			fmt.Sprint(r.Events), r.Elapsed.Round(time.Microsecond).String(),
			FormatEventsPerSec(r.EventsPerSec),
			fmt.Sprintf("%.1f", r.NsPerEvent),
			fmt.Sprintf("%.3f", r.AllocsPerEvent),
			fmt.Sprintf("%.2f", r.OverheadPct))
	}
	return t
}
