package main

import (
	"time"

	"robustmon/internal/detect"
)

// The slice workloads (buffer-wal, fanout-fleet, alloc-faults) alternate
// a bare slice — the same app on monitors with no recorder — with an
// augmented slice on recording monitors with the detector running. An
// augmented slice ends with the detector's final CheckNow and exporter
// Flush, so its time covers checking its events and making them
// durable, and no catch-up work leaks into the next bare slice. Each
// ratio of an augmented slice to the bare slice just before it is taken
// a second apart, so a change in the machine's speed over minutes
// cancels out of it.

// budget is when a load loop stops: at the deadline, or after ops
// operations (zero fields never stop it).
type budget struct {
	deadline time.Time
	ops      int64
}

func (b budget) spent(ops int64, now time.Time) bool {
	return (b.ops > 0 && ops >= b.ops) || (!b.deadline.IsZero() && now.After(b.deadline))
}

// sliceRun is one measured slice.
type sliceRun struct {
	ops  int64
	wall time.Duration
}

// sliceMachine is what a slice workload provides.
type sliceMachine interface {
	// load runs the load processes against the bare or the augmented app
	// until each has spent b, each timing its ops into its own histogram
	// (res[i] for process i; nil times nothing), and returns the op
	// count.
	load(aug bool, b budget, res []*hist) int64
	// checker returns the augmented app's detector and the exporter view
	// it flushes.
	checker() (*detect.Detector, detect.TraceExporter)
}

// closingOps is the closing burst of buffer-wal and fanout-fleet:
// buffer-wal's process records 36,000 events, more than the largest
// buffer a history shard keeps after a drain (16,384 events), so its
// single shard is left with none.
const closingOps = 18_000

// slice runs one bare or augmented slice; an augmented one runs the
// checking routine for its whole length.
func slice(e *env, m sliceMachine, aug bool, b budget, res []*hist) sliceRun {
	t0 := time.Now()
	var stop func()
	if aug {
		stop = e.startDetector(m.checker())
	}
	ops := m.load(aug, b, res)
	if stop != nil {
		stop()
	}
	return sliceRun{ops: ops, wall: time.Since(t0)}
}

// warmUp pushes the load b through the bare and the augmented app,
// untimed.
func warmUp(e *env, m sliceMachine, b budget) {
	slice(e, m, false, b, nil)
	slice(e, m, true, b, nil)
}

// slicePlan returns how many bare+augmented pairs fit the measured time
// and how long each bare and augmented slice is; a measured time shorter
// than one pair scales both down.
func slicePlan(e *env) (pairs int, bare, aug time.Duration) {
	pair := bareSliceLen + augSliceLen
	if m := e.measured(); m < pair {
		return 1, bareSliceLen * m / pair, augSliceLen * m / pair
	}
	return int(e.measured() / pair), bareSliceLen, augSliceLen
}

// runSlices runs the measured phase of a slice workload and publishes
// the slice metrics and the live heap; each augmented slice is one
// window. eventsDurable is how many events the augmented app recorded;
// every augmented slice ends with a flush, so all of them are durable
// (the WAL check at teardown confirms it). closing is the load pushed
// through the augmented app, then drained by one checkpoint, before the
// heap is read; a zero closing pushes none.
func runSlices(e *env, m sliceMachine, lanes int, eventsDurable func() int64, closing budget) {
	pairs, bareLen, augLen := slicePlan(e)
	aug, bare := newWindows(pairs, lanes), newWindows(pairs, lanes)
	before := eventsDurable()
	ratios := make([]float64, pairs)
	var augWall time.Duration
	var augOps int64
	var augAlloc uint64
	for k := 0; k < pairs; k++ {
		b := slice(e, m, false, budget{deadline: time.Now().Add(bareLen)}, bare.res[k])
		a0 := allocatedBytes()
		a := slice(e, m, true, budget{deadline: time.Now().Add(augLen)}, aug.res[k])
		augAlloc += allocatedBytes() - a0
		aug.done(k, a)
		ratios[k] = nsPerOp(a) / nsPerOp(b)
		augWall += a.wall
		augOps += a.ops
		e.attempted += a.ops + b.ops
	}
	aug.publish(e.rep)
	e.rep.set("alloc_bytes_per_op", "B/op", perOp(augAlloc, augOps))
	e.rep.put(windowed("overhead_ratio", "x", ratios, 0))
	for _, q := range latencyQuantiles {
		a, na, okA := aug.quantiles(q.p)
		b, nb, okB := bare.quantiles(q.p)
		name := q.name + "_ratio"
		if !okA || !okB {
			e.rep.setNull(name, "x", "too few samples in a slice")
			continue
		}
		for k := range a {
			a[k] /= b[k]
		}
		e.rep.put(windowed(name, "x", a, na+nb))
	}
	e.rep.set("durable_events_per_s", "events/s", perSecond(eventsDurable()-before, augWall))
	if e.tr != nil {
		lat := bare.all()
		e.rep.setQuantile("monitor.bare_call_ns_p50", "ns", lat, 0.50, 1)
		e.rep.setQuantile("monitor.bare_call_ns_p99", "ns", lat, 0.99, 1)
	}
	// A history shard keeps a recycled buffer sized by the last burst it
	// drained, so the live heap after an ordinary slice depends on where
	// the last periodic checkpoint happened to fall. A closing burst
	// drained by one checkpoint leaves every shard's buffer the same size
	// on every run before the heap is read.
	if closing != (budget{}) {
		m.load(true, closing, nil)
		det, exp := m.checker()
		det.CheckNow()
		if err := exp.Flush(); err != nil {
			e.fail.add(1, "exporter flush: %v", err)
		}
	}
	e.rep.set("heap_live_mb", "MiB", heapLiveMiB())
}

// perOp divides bytes allocated by an op count (0 for no ops).
func perOp(bytes uint64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(bytes) / float64(ops)
}

func nsPerOp(s sliceRun) float64 {
	if s.ops == 0 {
		return 0
	}
	return float64(s.wall.Nanoseconds()) / float64(s.ops)
}
