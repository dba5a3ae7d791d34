package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/history"
)

// E6 — raw-speed record path. E4 measures the whole monitor+detector
// pipeline; this sweep isolates the ingest hot loop the batching layer
// (history.AppendBatch / BatchWriter) exists for. Concurrent producers
// hammer one database while a background drainer empties it at
// checkpoint rhythm — the steady-state shape of a live deployment —
// and each cell reports throughput (events/sec, ns/event) alongside
// the allocation profile (bytes and heap allocations per event,
// testing.AllocsPerRun-style from runtime.MemStats deltas). The
// "append" rows publish every event through the singleton DB.Append;
// the "batch" rows stage through per-producer BatchWriters. Both land
// in BENCH_scaling.json, so the perf gate catches a throughput
// regression *or* an allocation creeping back into the hot loop.

// RecordPathConfig parameterises the E6 sweep.
type RecordPathConfig struct {
	// Monitors is the swept monitor counts; each cell runs both modes.
	Monitors []int
	// ProducersPerMonitor is the number of concurrent goroutines
	// recording into each monitor's shard (>1 exercises intra-shard
	// lock contention, not just the cross-shard sequence atomic).
	ProducersPerMonitor int
	// EventsPerProducer is how many events each producer records.
	EventsPerProducer int
	// Batch is the BatchWriter staging capacity for the batch rows
	// (<= 0 means history.DefaultBatchSize).
	Batch int
	// DrainEveryEvents makes each producer drain (and recycle) its
	// monitor's shard after recording this many events — the checkpoint
	// rhythm, expressed in events rather than time so the sweep is
	// deterministic and does not depend on a background goroutine
	// winning scheduler slices on a small machine.
	DrainEveryEvents int
	// Repeats reruns each cell; the reported row takes the median
	// elapsed (throughput noise is two-sided) and the minimum
	// bytes/allocs per event (allocation noise — GC assists, scheduler
	// bookkeeping — is strictly additive, so the smallest observation
	// is the best estimate of the code's own cost).
	Repeats int
}

// DefaultRecordPathConfig is the sweep cmd/monbench runs for
// -recordpath: 1 monitor (pure fast-path cost) and 8 monitors (the
// acceptance shape: contention across shards and on the global
// sequence atomic). Four producers per monitor keep every shard lock
// genuinely contended — the regime the batching layer exists for;
// with fewer producers the singleton path's lock is mostly uncontended
// and the comparison understates what batching buys a loaded system.
func DefaultRecordPathConfig() RecordPathConfig {
	return RecordPathConfig{
		Monitors:            []int{1, 8},
		ProducersPerMonitor: 4,
		EventsPerProducer:   50_000,
		Batch:               history.DefaultBatchSize,
		DrainEveryEvents:    4096,
		Repeats:             3,
	}
}

// RecordPathRow is one cell of the E6 sweep: one publication mode at
// one monitor count.
type RecordPathRow struct {
	// Mode is "append" (singleton DB.Append per event) or "batch"
	// (BatchWriter staging, AppendBatch publication).
	Mode string
	// Monitors and Producers describe the cell's concurrency: Producers
	// goroutines spread over Monitors shards.
	Monitors, Producers int
	// Batch is the staging capacity (0 for the append mode).
	Batch int
	// Events is the total number of events recorded per run.
	Events int64
	// Elapsed is the median wall time from first to last record call.
	Elapsed time.Duration
	// EventsPerSec and NsPerEvent are Events/Elapsed and its inverse —
	// the headline throughput pair.
	EventsPerSec float64
	NsPerEvent   float64
	// BytesPerEvent and AllocsPerEvent are the heap profile of the
	// whole run (producers + drainer) divided by Events: the gated
	// alloc ceiling.
	BytesPerEvent  float64
	AllocsPerEvent float64
}

// RunRecordPath executes the E6 sweep.
func RunRecordPath(cfg RecordPathConfig) ([]RecordPathRow, error) {
	if len(cfg.Monitors) == 0 || cfg.ProducersPerMonitor <= 0 || cfg.EventsPerProducer <= 0 {
		return nil, fmt.Errorf("experiment: bad record-path config %+v", cfg)
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = history.DefaultBatchSize
	}
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	drainEvery := cfg.DrainEveryEvents
	if drainEvery <= 0 {
		drainEvery = 4096
	}

	var rows []RecordPathRow
	for _, monitors := range cfg.Monitors {
		if monitors <= 0 {
			return nil, fmt.Errorf("experiment: bad monitor count %d", monitors)
		}
		for _, mode := range []string{"append", "batch"} {
			row := RecordPathRow{
				Mode:      mode,
				Monitors:  monitors,
				Producers: monitors * cfg.ProducersPerMonitor,
				Events:    int64(monitors) * int64(cfg.ProducersPerMonitor) * int64(cfg.EventsPerProducer),
			}
			if mode == "batch" {
				row.Batch = batch
			}
			elapsed := make([]time.Duration, 0, repeats)
			bytesPer := make([]float64, 0, repeats)
			allocsPer := make([]float64, 0, repeats)
			for i := 0; i < repeats; i++ {
				e, bpe, ape, err := ingestOnce(mode, monitors, cfg.ProducersPerMonitor,
					cfg.EventsPerProducer, batch, drainEvery)
				if err != nil {
					return nil, err
				}
				elapsed = append(elapsed, e)
				bytesPer = append(bytesPer, bpe)
				allocsPer = append(allocsPer, ape)
			}
			slices.Sort(elapsed)
			row.Elapsed = elapsed[len(elapsed)/2]
			row.BytesPerEvent = slices.Min(bytesPer)
			row.AllocsPerEvent = slices.Min(allocsPer)
			if s := row.Elapsed.Seconds(); s > 0 {
				row.EventsPerSec = float64(row.Events) / s
				row.NsPerEvent = float64(row.Elapsed.Nanoseconds()) / float64(row.Events)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ingestOnce runs the ingest workload E6 and E7 share, once: producers
// goroutines per monitor each record events events — one DB.Append per
// event in mode "append", a BatchWriter staging batch events in mode
// "batch" — and drain (and recycle) their own monitor's shard every
// drainEvery records: the checkpoint rhythm, inline so it cannot be
// starved on a small machine. opts configure the database (E7 passes
// history.WithObs). The run's MemStats delta, taken around everything
// including the final sweep, yields the allocation profile. Returns the
// producers' wall time and the bytes and allocs per event.
func ingestOnce(mode string, monitors, producers, events, batch, drainEvery int, opts ...history.Option) (time.Duration, float64, float64, error) {
	db := history.New(opts...)
	names := make([]string, monitors)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	want := int64(monitors) * int64(producers) * int64(events)
	var drained atomic.Int64

	// Settle the heap so the delta below is the run's own profile.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var wg sync.WaitGroup
	start := time.Now()
	for m := 0; m < monitors; m++ {
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(mon string, pid int64) {
				defer wg.Done()
				tmpl := event.Event{
					Monitor: mon, Type: event.Enter, Pid: pid,
					Proc: "Op", Flag: event.Completed,
					Time: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC),
				}
				// The producer is its own checkpoint loop: every
				// drainEvery records it sweeps its shard and recycles the
				// drained segment (the harness is its only owner, so it
				// goes straight back to the segment pool, the
				// steady-state shape of a recycling consumer).
				drain := func() {
					seg := db.DrainMonitor(mon)
					drained.Add(int64(len(seg)))
					history.Recycle(seg)
				}
				if mode == "batch" {
					w := db.NewBatchWriter(mon, batch)
					for i := 1; i <= events; i++ {
						w.Append(tmpl)
						if i%drainEvery == 0 {
							drain()
						}
					}
					w.Close()
				} else {
					for i := 1; i <= events; i++ {
						db.Append(tmpl)
						if i%drainEvery == 0 {
							drain()
						}
					}
				}
			}(names[m], int64(m*producers+p+1))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, name := range names {
		seg := db.DrainMonitor(name)
		drained.Add(int64(len(seg)))
		history.Recycle(seg)
	}
	runtime.ReadMemStats(&after)

	if got := drained.Load(); got != want {
		return 0, 0, 0, fmt.Errorf("experiment: ingest %s/%d drained %d of %d events", mode, monitors, got, want)
	}
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(want)
	allocsPer := float64(after.Mallocs-before.Mallocs) / float64(want)
	return elapsed, bytesPer, allocsPer, nil
}

// RecordPathTable renders the E6 sweep.
func RecordPathTable(rows []RecordPathRow) *Table {
	t := NewTable("mode", "monitors", "batch", "events", "elapsed", "events/sec", "ns/event", "B/event", "allocs/event")
	for _, r := range rows {
		t.AddRow(r.Mode, fmt.Sprint(r.Monitors), fmt.Sprint(r.Batch),
			fmt.Sprint(r.Events), r.Elapsed.Round(time.Microsecond).String(),
			FormatEventsPerSec(r.EventsPerSec),
			fmt.Sprintf("%.1f", r.NsPerEvent),
			fmt.Sprintf("%.1f", r.BytesPerEvent),
			fmt.Sprintf("%.3f", r.AllocsPerEvent))
	}
	return t
}
