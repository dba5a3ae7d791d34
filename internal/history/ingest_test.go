package history

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
)

// Tests for the batched record path: AppendBatch block publication,
// the lock-free BatchWriter, the checkpoint flush handshake and the
// segment-slab pool. The -race interleavings at the bottom race
// batched ingest against Drain, DrainMonitorUpTo and ResetMonitor.

func batchOf(mon string, n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Monitor: mon, Type: event.Enter, Pid: int64(i + 1),
			Proc: "Op", Time: time.Unix(0, int64(i)),
		}
	}
	return evs
}

func TestAppendBatchAssignsContiguousRange(t *testing.T) {
	t.Parallel()
	// global=false: the sharded layout, one lock per monitor.
	t.Run("global=false", func(t *testing.T) {
		t.Parallel()
		db := New()
		apFor(db, "other") // seq 1: the batch must start after it
		first, last := db.AppendBatch("a", batchOf("a", 5))
		if first != 2 || last != 6 {
			t.Fatalf("AppendBatch range = [%d, %d], want [2, 6]", first, last)
		}
		seg := db.DrainMonitor("a")
		if len(seg) != 5 {
			t.Fatalf("drained %d events, want 5", len(seg))
		}
		for i, e := range seg {
			if e.Seq != first+int64(i) {
				t.Fatalf("seg[%d].Seq = %d, want %d", i, e.Seq, first+int64(i))
			}
			if e.Monitor != "a" {
				t.Fatalf("seg[%d].Monitor = %q, want a (AppendBatch stamps it)", i, e.Monitor)
			}
		}
		if got := db.EventCount("a"); got != 5 {
			t.Fatalf("EventCount(a) = %d, want 5", got)
		}
		if got := db.Total(); got != 6 {
			t.Fatalf("Total = %d, want 6", got)
		}
	})
}

func TestAppendBatchEmptyIsNoOp(t *testing.T) {
	t.Parallel()
	db := New()
	if first, last := db.AppendBatch("a", nil); first != 0 || last != 0 {
		t.Fatalf("empty batch range = [%d, %d], want [0, 0]", first, last)
	}
	if db.Total() != 0 || db.LastSeq() != 0 {
		t.Fatalf("empty batch mutated the db: total=%d lastSeq=%d", db.Total(), db.LastSeq())
	}
}

// TestAppendBatchEquivalentToSingletons pins the semantic contract: a
// batch publication leaves the database in exactly the state N
// singleton Appends would have.
func TestAppendBatchEquivalentToSingletons(t *testing.T) {
	t.Parallel()
	// global=false: the sharded layout, one lock per monitor.
	t.Run("global=false", func(t *testing.T) {
		t.Parallel()
		build := func(batched bool) *DB {
			db := New(WithFullTrace())
			for _, mon := range []string{"a", "b"} {
				evs := batchOf(mon, 7)
				if batched {
					db.AppendBatch(mon, evs)
				} else {
					for _, e := range evs {
						db.Append(e)
					}
				}
			}
			return db
		}
		one, many := build(false), build(true)
		a, b := one.Drain(), many.Drain()
		if len(a) != len(b) {
			t.Fatalf("drain lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d differs:\n singleton %+v\n batched   %+v", i, a[i], b[i])
			}
		}
		fa, fb := one.Full(), many.Full()
		if len(fa) != len(fb) {
			t.Fatalf("full traces differ in length: %d vs %d", len(fa), len(fb))
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("full-trace event %d differs", i)
			}
		}
		if one.Total() != many.Total() || one.LastSeq() != many.LastSeq() {
			t.Fatalf("counters differ: total %d/%d lastSeq %d/%d",
				one.Total(), many.Total(), one.LastSeq(), many.LastSeq())
		}
	})
}

// TestAppendBatchCallerOwnsInput pins what lets BatchWriter reuse its
// staging buffer: AppendBatch copies events out, so mutating the input
// afterwards must not reach into the shard.
func TestAppendBatchCallerOwnsInput(t *testing.T) {
	t.Parallel()
	db := New()
	evs := batchOf("a", 3)
	db.AppendBatch("a", evs)
	for i := range evs {
		evs[i].Proc = "clobbered"
	}
	for i, e := range db.DrainMonitor("a") {
		if e.Proc != "Op" {
			t.Fatalf("event %d reads caller mutation %q — AppendBatch aliased its input", i, e.Proc)
		}
	}
}

func TestBatchWriterFlushesOnFullAndClose(t *testing.T) {
	t.Parallel()
	db := New()
	w := db.NewBatchWriter("a", 3)
	if w.Monitor() != "a" {
		t.Fatalf("Monitor() = %q, want a", w.Monitor())
	}
	evs := batchOf("a", 5)
	for i, e := range evs[:2] {
		w.Append(e)
		if got := w.Pending(); got != i+1 {
			t.Fatalf("Pending = %d after %d appends, want %d", got, i+1, i+1)
		}
	}
	if db.Total() != 0 {
		t.Fatalf("staged events published early: total = %d", db.Total())
	}
	w.Append(evs[2]) // third append fills the block: auto-flush
	if w.Pending() != 0 || db.Total() != 3 {
		t.Fatalf("after full block: pending=%d total=%d, want 0/3", w.Pending(), db.Total())
	}
	w.Append(evs[3])
	w.Append(evs[4])
	w.Close() // final partial block publishes
	if db.Total() != 5 {
		t.Fatalf("after Close: total = %d, want 5", db.Total())
	}
	seg := db.DrainMonitor("a")
	for i, e := range seg {
		if e.Seq != int64(i+1) {
			t.Fatalf("seg[%d].Seq = %d, want %d (blocks must stay in order)", i, e.Seq, i+1)
		}
	}
}

func TestBatchWriterMismatchedMonitorFallsBack(t *testing.T) {
	t.Parallel()
	db := New()
	w := db.NewBatchWriter("a", 8)
	defer w.Close()
	got := w.Append(event.Event{Monitor: "b", Type: event.Enter, Time: time.Unix(0, 0)})
	if got.Seq != 1 {
		t.Fatalf("mismatched-monitor append Seq = %d, want 1 (immediate singleton publish)", got.Seq)
	}
	if w.Pending() != 0 {
		t.Fatalf("mismatched event staged in the wrong writer: pending = %d", w.Pending())
	}
	if seg := db.DrainMonitor("b"); len(seg) != 1 {
		t.Fatalf("monitor b drained %d events, want 1", len(seg))
	}
}

func TestFlushMonitorWritersFlushesOnlyNamed(t *testing.T) {
	t.Parallel()
	db := New()
	wa := db.NewBatchWriter("a", 16)
	wb := db.NewBatchWriter("b", 16)
	defer wa.Close()
	defer wb.Close()
	wa.Append(batchOf("a", 1)[0])
	wb.Append(batchOf("b", 1)[0])
	db.FlushMonitorWriters("a")
	if wa.Pending() != 0 {
		t.Fatalf("writer a not flushed: pending = %d", wa.Pending())
	}
	if wb.Pending() != 1 {
		t.Fatalf("writer b flushed though unnamed: pending = %d", wb.Pending())
	}
	db.FlushWriters()
	if wb.Pending() != 0 {
		t.Fatalf("FlushWriters left writer b staged: pending = %d", wb.Pending())
	}
	if db.Total() != 2 {
		t.Fatalf("total = %d, want 2", db.Total())
	}
}

func TestClosedWriterLeavesHandshake(t *testing.T) {
	t.Parallel()
	db := New()
	w := db.NewBatchWriter("a", 4)
	w.Close()
	// A closed writer must be gone from the registry; flushing must not
	// touch it (nothing observable beyond not panicking and not
	// re-publishing).
	db.FlushMonitorWriters("a")
	db.FlushWriters()
	if db.Total() != 0 {
		t.Fatalf("closed writer republished: total = %d", db.Total())
	}
}

func TestRecycleAndSlabReuse(t *testing.T) {
	// Not parallel: the segment pool is package-global and this test
	// reasons about what it returns.
	seg, _ := newSegment(segClasses[0])
	if len(seg) != segClasses[0] || cap(seg) != segClasses[0] {
		t.Fatalf("newSegment(%d): len=%d cap=%d", segClasses[0], len(seg), cap(seg))
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
	// An append-grown slab lands between classes; Recycle reslices it
	// down so the pool's class promise (a Get's capacity is exactly the
	// class) holds. classFor/slabFor agree on the boundaries.
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
	// A trickle hint below the smallest class may return nil (regrow
	// naturally) but must never return an undersized slab.
	if s, _ := slabFor(8); s != nil && cap(s) < 8 {
		t.Fatalf("slabFor(8) returned undersized cap %d", cap(s))
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
		db.AppendBatch("a", batchOf("a", burst))
		seg := db.DrainMonitor("a")
		if len(seg) != burst {
			t.Fatalf("cycle %d drained %d, want %d", cycle, len(seg), burst)
		}
		Recycle(seg)
		s := db.shardFor("a")
		s.mu.Lock()
		c := cap(s.segment)
		s.mu.Unlock()
		if c < burst {
			t.Fatalf("cycle %d left shard cap %d, want >= %d (swap must install a burst-sized slab)", cycle, c, burst)
		}
	}
}

// raceInvariants drains everything left, then checks the global
// bookkeeping a batched-ingest race must preserve: every published
// event is either drained or reset-dropped, sequence numbers are
// unique, and every drained segment was seq-sorted.
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

func TestBatchedIngestRacesDrainsAndResets(t *testing.T) {
	t.Parallel()
	// global=false: the sharded layout, one lock per monitor.
	t.Run("global=false", func(t *testing.T) {
		t.Parallel()
		db := New()
		const (
			monitors  = 4
			producers = 2 // per monitor: one AppendBatch, one BatchWriter
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
			// Producer 1: direct AppendBatch blocks.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < blocks; b++ {
					db.AppendBatch(mon, batchOf(mon, blockLen))
				}
			}()
			// Producer 2: a BatchWriter, flushed only by its own
			// goroutine (the single-producer contract; no freeze edge
			// exists in this test, so nothing else may touch it).
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := db.NewBatchWriter(mon, 16)
				for b := 0; b < blocks; b++ {
					for _, e := range batchOf(mon, blockLen) {
						w.Append(e)
					}
				}
				w.Close()
			}()
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
		// A global drainer racing everything above.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < blocks; i++ {
				col.add(t, db.Drain())
			}
		}()
		wg.Wait()
		col.add(t, db.Drain())

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

// TestCheckpointFlushRacesProducers models the detector handshake at
// the history layer: a "checkpoint" goroutine repeatedly flushes a
// quiescent writer while OTHER monitors' writers keep publishing. The
// per-monitor flush must not touch live writers (that would be the
// data race the monitor-bound design exists to prevent).
func TestCheckpointFlushRacesProducers(t *testing.T) {
	t.Parallel()
	db := New()
	const blocks = 200
	var wg sync.WaitGroup
	// Live producer on monitor b, never flushed externally.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := db.NewBatchWriter("b", 8)
		for i := 0; i < blocks; i++ {
			for _, e := range batchOf("b", 4) {
				w.Append(e)
			}
		}
		w.Close()
	}()
	// Checkpoint loop flushing only monitor a's writers — none exist,
	// so this exercises the registry scan racing register/deregister
	// and must never reach writer b's buffer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < blocks; i++ {
			db.FlushMonitorWriters("a")
		}
	}()
	wg.Wait()
	if got := db.Total(); got != blocks*4 {
		t.Fatalf("Total = %d, want %d", got, blocks*4)
	}
}
