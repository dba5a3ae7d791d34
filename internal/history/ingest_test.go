package history

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
)

// Tests for the record path and the segment-slab pool. The -race
// interleaving at the bottom races concurrent ingest against
// DrainMonitorUpTo and ResetMonitor.

func eventsOf(mon string, n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Monitor: mon, Type: event.Enter, Pid: int64(i + 1),
			Proc: "Op", Time: time.Unix(0, int64(i)),
		}
	}
	return evs
}

// emptyPools takes every slab out of the class pools, so a test that
// counts pool traffic starts cold whatever ran before it. Only for
// tests that are not parallel: the pools are package-global.
func emptyPools() {
	for i := range segPools {
		for segPools[i].Get() != nil {
		}
	}
}

func TestRecycleAndSlabReuse(t *testing.T) {
	// Not parallel: the segment pool is package-global and this test
	// reasons about what it returns.
	slab, _ := slabFor(segClasses[0])
	seg := slab[:segClasses[0]]
	if cap(seg) != segClasses[0] {
		t.Fatalf("slabFor(%d): cap=%d", segClasses[0], cap(seg))
	}
	for i := range seg {
		seg[i] = event.Event{Monitor: "x", Proc: "p", Seq: int64(i)}
	}
	Recycle(seg)
	got, _ := slabFor(segClasses[0])
	if cap(got) < segClasses[0] {
		t.Fatalf("slabFor(%d) cap = %d", segClasses[0], cap(got))
	}
	// Whether or not the pool returned the recycled slab (sync.Pool may
	// drop it), the slab must be clean: no stale events pinned.
	full := got[:cap(got)]
	for i, e := range full {
		if e != (event.Event{}) {
			t.Fatalf("pooled slab dirty at %d: %+v", i, e)
		}
	}
}

func TestRecycleRejectsOutOfClassCaps(t *testing.T) {
	t.Parallel()
	// Too small and too large: both must be left to the GC, silently.
	Recycle(make(event.Seq, 0, segClasses[0]/2))
	Recycle(make(event.Seq, 0, maxRetainedCap*2))
	Recycle(nil)
}

func TestRecycleNormalisesOddCaps(t *testing.T) {
	t.Parallel()
	// A segment whose capacity lies between classes (one its caller
	// made itself) is resliced down by Recycle so the pool's class
	// promise (a Get's capacity is exactly the class) holds.
	// classFor/slabFor agree on the boundaries.
	if i := classFor(segClasses[0]); i != 0 {
		t.Fatalf("classFor(%d) = %d, want 0", segClasses[0], i)
	}
	if i := classFor(segClasses[0] + 1); i != 1 {
		t.Fatalf("classFor(%d) = %d, want 1", segClasses[0]+1, i)
	}
	if i := classFor(maxRetainedCap + 1); i != -1 {
		t.Fatalf("classFor(max+1) = %d, want -1", i)
	}
	// A class-sized hint with a dry pool must still produce a slab (the
	// non-recycling-consumer path allocates one bounded slab per drain).
	if s, _ := slabFor(segClasses[1]); cap(s) < segClasses[1] {
		t.Fatalf("slabFor(%d) cap = %d, want >= class", segClasses[1], cap(s))
	}
	// A trickle hint below the smallest class takes the smallest class:
	// slabFor never returns nil, so a shard never regrows from nil.
	if s, _ := slabFor(8); cap(s) != segClasses[0] {
		t.Fatalf("slabFor(8) cap = %d, want the smallest class %d", cap(s), segClasses[0])
	}
	// Beyond the top class it allocates exactly the hint, unpooled.
	if s, pooled := slabFor(maxRetainedCap + 1); cap(s) != maxRetainedCap+1 || pooled {
		t.Fatalf("slabFor(max+1) cap = %d pooled=%v, want %d unpooled", cap(s), pooled, maxRetainedCap+1)
	}
}

func TestDrainRetainsSlabCapacityAcrossCycles(t *testing.T) {
	t.Parallel()
	// The swap-based full drain must leave the shard ready to absorb
	// the same burst again: after a class-sized drain the installed
	// replacement has class capacity, so the next burst appends without
	// regrowing from nil.
	db := New()
	burst := segClasses[0]
	for cycle := 0; cycle < 3; cycle++ {
		for _, e := range eventsOf("a", burst) {
			db.Append(e)
		}
		seg, _ := db.DrainMonitorUpTo("a", math.MaxInt64, 0)
		if len(seg) != burst {
			t.Fatalf("cycle %d drained %d, want %d", cycle, len(seg), burst)
		}
		Recycle(seg)
		s := db.shardFor("a")
		s.mu.Lock()
		c := cap(s.slab)
		s.mu.Unlock()
		if c < burst {
			t.Fatalf("cycle %d left shard cap %d, want >= %d (swap must install a burst-sized slab)", cycle, c, burst)
		}
	}
}

// TestRecordPathAllocsPerEvent bounds what the closed record loop
// allocates: append a burst, drain it up to the horizon and recycle
// the drained segment. The steady state allocates per cycle (the
// pool's slab handle), never per event (4,096 per cycle). Not
// parallel: AllocsPerRun counts every goroutine's allocations.
func TestRecordPathAllocsPerEvent(t *testing.T) {
	const events, maxAllocs = 4096, 4
	tmpl := event.Event{Monitor: "m", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed}
	t.Run("append", func(t *testing.T) {
		db := New()
		drained, cycles := 0, 0
		cycle := func() {
			for i := 0; i < events; i++ {
				db.Append(tmpl)
			}
			seg, _ := db.DrainMonitorUpTo("m", db.LastSeq(), 0)
			drained += len(seg)
			cycles++
			Recycle(seg)
		}
		cycle() // warm-up: the shard's first slab grows through the classes
		allocs := testing.AllocsPerRun(50, cycle)
		if drained != cycles*events {
			t.Fatalf("drained %d events in %d cycles, want %d", drained, cycles, cycles*events)
		}
		if allocs > maxAllocs {
			t.Fatalf("record loop allocates %.2f per %d-event cycle, want at most %d", allocs, events, maxAllocs)
		}
		t.Logf("%.2f allocations per %d-event cycle", allocs, events)
	})
}

// raceCollector accumulates drained segments for the -race tests and
// checks the bookkeeping an ingest race must preserve: sequence
// numbers are unique and every drained segment is seq-sorted.
type raceCollector struct {
	mu      sync.Mutex
	seen    map[int64]bool
	drained int64
	sorted  bool
}

func newRaceCollector() *raceCollector {
	return &raceCollector{seen: map[int64]bool{}, sorted: true}
}

func (c *raceCollector) add(t *testing.T, seg event.Seq) {
	c.mu.Lock()
	defer c.mu.Unlock()
	last := int64(-1)
	for _, e := range seg {
		if c.seen[e.Seq] {
			t.Errorf("duplicate seq %d drained", e.Seq)
		}
		c.seen[e.Seq] = true
		if e.Seq <= last {
			c.sorted = false
		}
		last = e.Seq
	}
	c.drained += int64(len(seg))
}

// TestIngestRacesDrainsAndResets races two Append producers per
// monitor against bounded per-monitor drains, occasional resets and an
// all-shard drainer: every published event is either drained or
// reset-dropped, sequence numbers are unique, and every drained
// segment is seq-sorted.
func TestIngestRacesDrainsAndResets(t *testing.T) {
	t.Parallel()
	// global=false: the sharded layout, one lock per monitor.
	t.Run("global=false", func(t *testing.T) {
		t.Parallel()
		db := New()
		const (
			monitors  = 4
			producers = 2 // per monitor
			blocks    = 50
			blockLen  = 32
		)
		names := make([]string, monitors)
		for i := range names {
			names[i] = fmt.Sprintf("m%d", i)
		}
		col := newRaceCollector()
		var resetDropped int64
		var resetMu sync.Mutex

		var wg sync.WaitGroup
		for _, mon := range names {
			mon := mon
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < blocks; b++ {
						for _, e := range eventsOf(mon, blockLen) {
							db.Append(e)
						}
					}
				}()
			}
			// Per-monitor consumer: bounded drains racing the
			// producers, with an occasional reset thrown in.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < blocks; i++ {
					if i%10 == 9 {
						d := db.ResetMonitor(mon)
						resetMu.Lock()
						resetDropped += int64(d)
						resetMu.Unlock()
						continue
					}
					seg, _ := db.DrainMonitorUpTo(mon, db.LastSeq(), blockLen*2)
					col.add(t, seg)
					Recycle(seg)
				}
			}()
		}
		// An all-shard drainer racing everything above.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < blocks; i++ {
				col.add(t, drainAll(db))
			}
		}()
		wg.Wait()
		col.add(t, drainAll(db))

		want := int64(monitors) * producers * blocks * blockLen
		if got := col.drained + resetDropped; got != want {
			t.Fatalf("drained %d + reset-dropped %d = %d, want %d published events accounted for",
				col.drained, resetDropped, col.drained+resetDropped, want)
		}
		if !col.sorted {
			t.Fatal("a drained segment was not seq-sorted")
		}
		if got := db.Total(); got != want {
			t.Fatalf("Total = %d, want %d", got, want)
		}
	})
}
