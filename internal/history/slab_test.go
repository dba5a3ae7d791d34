package history

import (
	"runtime"
	"runtime/debug"
	"testing"

	"robustmon/internal/event"
)

// Tests for the slab lifecycle: growth into the next pooled class,
// the replacement a full drain installs, and the slab a final batch
// is handed out in. The pools are package-global, so none of these
// tests is parallel.

// shardSlab reports the named shard's slab capacity and its head and
// cut bookkeeping.
func shardSlab(db *DB, monitor string) (capacity, head, cut int) {
	s := db.shardFor(monitor)
	s.mu.Lock()
	defer s.mu.Unlock()
	return cap(s.slab), s.head, s.cut
}

// zeroTail fails the test unless seg[len:cap] holds only zero events:
// whatever a drain hands out reaches the pool, which holds no stale
// events.
func zeroTail(t *testing.T, what string, seg event.Seq) {
	t.Helper()
	stale := 0
	for _, e := range seg[len(seg):cap(seg)] {
		if e != (event.Event{}) {
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("%s: %d stale events past len %d (cap %d)", what, stale, len(seg), cap(seg))
	}
}

// TestDoublingIntervalAllocsPerCycle records an interval that doubles
// every cycle, from 1,024 events to the top class (131,072), draining
// and recycling each. Each cycle outgrows the replacement the last one
// left, so each grows once; with a warm pool the growth and the
// replacement are pool hits, and a cycle allocates only the pool
// handles of its Recycles — O(1), not the regrowth series an append-
// grown slab pays for every doubling.
func TestDoublingIntervalAllocsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	// One P and no GC: sync.Pool parks a slab in a per-P slot that no
	// other P can take from, and a collection empties the pool, so
	// either could make a warm cycle miss a slab the pool holds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const cyclesPerRun, maxAllocsPerCycle, maxBytesPerCycle = 8, 4, 1024
	tmpl := event.Event{Monitor: "m", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed}
	db := New()
	run := func() {
		for n := 1024; n <= maxRetainedCap; n *= 2 {
			for i := 0; i < n; i++ {
				db.Append(tmpl)
			}
			seg, _ := db.DrainMonitorUpTo("m", db.LastSeq(), 0)
			if len(seg) != n {
				t.Fatalf("drained %d events, want %d", len(seg), n)
			}
			Recycle(seg)
		}
	}
	run() // warm-up: every class is allocated once
	allocs := testing.AllocsPerRun(2, run) / cyclesPerRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / cyclesPerRun
	if allocs > maxAllocsPerCycle || bytes > maxBytesPerCycle {
		t.Fatalf("a doubling cycle allocates %.2f times and %d bytes, want at most %d and %d: a slab was regrown",
			allocs, bytes, maxAllocsPerCycle, maxBytesPerCycle)
	}
	t.Logf("%.2f allocations and %d bytes per doubling cycle", allocs, bytes)
}

// TestDrainAboveTopClassInstallsTopSlab drains a burst above the top
// class: the burst itself grew past the pool, but the shard must still
// get a top-class replacement, never nil, so the next interval does
// not regrow from nothing.
func TestDrainAboveTopClassInstallsTopSlab(t *testing.T) {
	db := New()
	for _, e := range eventsOf("a", maxRetainedCap+1) {
		db.Append(e)
	}
	seg, _ := db.DrainMonitorUpTo("a", db.LastSeq(), 0)
	if len(seg) != maxRetainedCap+1 {
		t.Fatalf("drained %d events, want %d", len(seg), maxRetainedCap+1)
	}
	Recycle(seg) // beyond the top class: left to the GC
	if c, _, _ := shardSlab(db, "a"); c != maxRetainedCap {
		t.Fatalf("replacement slab cap %d, want the top class %d", c, maxRetainedCap)
	}
}

// TestFinalBatchTakesItsSlabAtFullClass drains a 1,000-event interval
// in 256-event batches. The three cuts are copies; the final batch is
// the shard's own slab, its events moved down to the slab's start, so
// it carries the slab's full 1,024-event class to the pool, and the
// replacement holds the whole interval, not just the final batch.
func TestFinalBatchTakesItsSlabAtFullClass(t *testing.T) {
	db := New()
	for _, e := range eventsOf("a", 1000) {
		db.Append(e)
	}
	horizon := db.LastSeq()
	var got []int64
	var final event.Seq
	for {
		seg, more := db.DrainMonitorUpTo("a", horizon, 256)
		for _, e := range seg {
			got = append(got, e.Seq)
		}
		if !more {
			final = seg
			break
		}
		if cap(seg) != 256 {
			t.Fatalf("cut cap %d, want the 256-event class", cap(seg))
		}
		Recycle(seg)
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("drained seq %d at position %d, want %d", seq, i, i+1)
		}
	}
	if len(got) != 1000 || len(final) != 1000-3*256 {
		t.Fatalf("drained %d events, final batch %d; want 1000 and %d", len(got), len(final), 1000-3*256)
	}
	if cap(final) != 1024 {
		t.Fatalf("final batch cap %d, want its slab's class 1024", cap(final))
	}
	zeroTail(t, "final batch", final)
	c, head, cut := shardSlab(db, "a")
	if c < 1000 || head != 0 || cut != 0 {
		t.Fatalf("replacement cap %d (head %d, cut %d), want room for the 1000-event interval and fresh bookkeeping", c, head, cut)
	}
	Recycle(final)
}

// TestGrowthAfterCutsKeepsOrder lets a horizon cut advance the slab,
// keeps recording until the slab is full and grows, and drains the
// rest: every event comes out exactly once and in order, and the final
// batch's tail is clean.
func TestGrowthAfterCutsKeepsOrder(t *testing.T) {
	db := New()
	evs := eventsOf("a", 1200)
	for _, e := range evs[:200] {
		db.Append(e)
	}
	var got []int64
	// A horizon at event 150 leaves 50 buffered behind the cut.
	seg, more := db.DrainMonitorUpTo("a", 150, 0)
	if len(seg) != 150 || more {
		t.Fatalf("horizon cut: %d events, more=%v", len(seg), more)
	}
	for _, e := range seg {
		got = append(got, e.Seq)
	}
	Recycle(seg)
	// 56 more fill the 256-event slab; the next one grows it with the
	// cut region behind the buffered events.
	for _, e := range evs[200:] {
		db.Append(e)
	}
	if _, head, cut := shardSlab(db, "a"); head != 0 || cut != 150 {
		t.Fatalf("after growth head=%d cut=%d, want 0 and 150", head, cut)
	}
	seg, _ = db.DrainMonitorUpTo("a", db.LastSeq(), 0)
	for _, e := range seg {
		got = append(got, e.Seq)
	}
	zeroTail(t, "final drain", seg)
	if len(got) != len(evs) {
		t.Fatalf("drained %d events, want %d", len(got), len(evs))
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("drained seq %d at position %d, want %d", seq, i, i+1)
		}
	}
	if c, _, _ := shardSlab(db, "a"); c != 2048 {
		t.Fatalf("replacement cap %d, want 2048 for the 1200-event interval", c)
	}
}
