package history

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
)

// apFor appends one Enter event for the named monitor and returns its
// assigned sequence number.
func apFor(db *DB, mon string) int64 {
	e := db.Append(event.Event{Monitor: mon, Type: event.Enter, Time: time.Unix(0, 0)})
	return e.Seq
}

func TestDrainMonitorUpToBatches(t *testing.T) {
	t.Parallel()
	// global=false: the sharded layout, one lock per monitor.
	t.Run("global=false", func(t *testing.T) {
		t.Parallel()
		db := New()
		// Interleave two monitors: a b a b a b a b a b.
		var aSeqs []int64
		for i := 0; i < 5; i++ {
			aSeqs = append(aSeqs, apFor(db, "a"))
			apFor(db, "b")
		}
		horizon := aSeqs[3] // four of a's five events are ≤ horizon

		var drained []int64
		batches := 0
		for {
			seg, more := db.DrainMonitorUpTo("a", horizon, 3)
			batches++
			for _, e := range seg {
				if e.Monitor != "a" {
					t.Fatalf("drained foreign event %+v", e)
				}
				if e.Seq > horizon {
					t.Fatalf("drained event %d beyond horizon %d", e.Seq, horizon)
				}
				drained = append(drained, e.Seq)
			}
			if !more {
				break
			}
		}
		if batches != 2 {
			t.Fatalf("drained 4 events in %d batches, want 2 (max 3 per batch)", batches)
		}
		for i, s := range drained {
			if s != aSeqs[i] {
				t.Fatalf("drained[%d] = seq %d, want %d", i, s, aSeqs[i])
			}
		}
		// The fifth a-event (beyond the horizon) and all of b's events
		// must still be buffered.
		rest := drainAll(db)
		if len(rest) != 6 {
			t.Fatalf("left %d events buffered, want 6 (1 of a + 5 of b)", len(rest))
		}
		for _, e := range rest {
			if e.Monitor == "a" && e.Seq <= horizon {
				t.Fatalf("event %d of a should have been drained", e.Seq)
			}
		}
	})
}

func TestDrainMonitorUpToNoBound(t *testing.T) {
	t.Parallel()
	db := New()
	for i := 0; i < 7; i++ {
		apFor(db, "a")
	}
	seg, more := db.DrainMonitorUpTo("a", db.LastSeq(), 0)
	if len(seg) != 7 || more {
		t.Fatalf("unbounded drain: %d events, more=%v; want 7, false", len(seg), more)
	}
}

func TestDrainMonitorUpToFeedsTees(t *testing.T) {
	t.Parallel()
	db := New()
	var mu sync.Mutex
	var teed []int64
	db.AddDrainTee(func(mon string, seg event.Seq) {
		mu.Lock()
		defer mu.Unlock()
		if mon != "a" {
			t.Errorf("tee saw monitor %q", mon)
		}
		for _, e := range seg {
			teed = append(teed, e.Seq)
		}
	})
	for i := 0; i < 6; i++ {
		apFor(db, "a")
	}
	for {
		if _, more := db.DrainMonitorUpTo("a", db.LastSeq(), 4); !more {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(teed) != 6 {
		t.Fatalf("tee observed %d events, want 6", len(teed))
	}
	for i, s := range teed {
		if s != int64(i+1) {
			t.Fatalf("tee order broken: teed[%d] = %d", i, s)
		}
	}
}

// TestAppendConcurrentWithBatchedDrains races appends against bounded
// per-monitor drains under -race: every appended event must be drained
// exactly once, each drained batch seq-sorted. The drainers stop only
// after every producer has returned, and a final drain collects what
// they left buffered.
func TestAppendConcurrentWithBatchedDrains(t *testing.T) {
	t.Parallel()
	db := New()
	const mons, perMon = 4, 500
	col := newRaceCollector()
	var producers, drainers sync.WaitGroup
	stop := make(chan struct{})
	for m := 0; m < mons; m++ {
		name := fmt.Sprintf("m%d", m)
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < perMon; i++ {
				apFor(db, name)
			}
		}()
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					seg, _ := db.DrainMonitorUpTo(name, db.LastSeq(), 16)
					col.add(t, seg)
					Recycle(seg)
				}
			}
		}()
	}
	producers.Wait()
	close(stop)
	drainers.Wait()
	col.add(t, drainAll(db))

	const want = mons * perMon
	if col.drained != want || len(col.seen) != want {
		t.Fatalf("drained %d events (%d distinct), want each of %d exactly once", col.drained, len(col.seen), want)
	}
	for seq := int64(1); seq <= want; seq++ {
		if !col.seen[seq] {
			t.Fatalf("seq %d never drained", seq)
		}
	}
	if !col.sorted {
		t.Fatal("a drained segment was not seq-sorted")
	}
}
