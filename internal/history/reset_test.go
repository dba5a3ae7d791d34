package history

import (
	"testing"

	"robustmon/internal/event"
)

// ResetMonitor with several monitors buffered: the reset must drop
// exactly the named monitor's buffered events and leave everything
// else queued.
func TestResetMonitorDropsOnlyNamedMonitor(t *testing.T) {
	t.Parallel()
	db := New()
	for i := 0; i < 4; i++ {
		db.Append(mev("a", int64(i+1)))
		db.Append(mev("b", int64(i+10)))
	}
	db.Append(mev("a", 99))

	if got := db.ResetMonitor("a"); got != 5 {
		t.Fatalf("ResetMonitor dropped %d events, want 5", got)
	}
	seg := drainAll(db)
	if len(seg) != 4 {
		t.Fatalf("drain returned %d events, want b's 4", len(seg))
	}
	for _, e := range seg {
		if e.Monitor != "a" {
			continue
		}
		t.Fatalf("reset monitor's event survived: %+v", e)
	}
	// The global sequence and lifetime total keep counting: a reset
	// discards buffered events, it does not rewrite history.
	if db.LastSeq() != 9 || db.Total() != 9 {
		t.Fatalf("LastSeq=%d Total=%d after reset, want 9,9", db.LastSeq(), db.Total())
	}
	// Fresh-life events keep claiming ascending sequence numbers.
	if got := db.Append(mev("a", 100)); got.Seq != 10 {
		t.Fatalf("post-reset append got seq %d, want 10", got.Seq)
	}
}

func TestResetMonitorDoesNotFeedTees(t *testing.T) {
	t.Parallel()
	var teed []string
	db := New()
	db.AddDrainTee(func(monitor string, seg event.Seq) {
		teed = append(teed, monitor)
	})
	db.Append(mev("a", 1))
	db.Append(mev("b", 2))
	db.ResetMonitor("a")
	if len(teed) != 0 {
		t.Fatalf("reset fed the drain tees (%v); discarded events were never checked and must not be exported", teed)
	}
	drainAll(db)
	if len(teed) != 1 || teed[0] != "b" {
		t.Fatalf("post-reset drain teed %v, want only monitor b's segment", teed)
	}
}

func TestResetMonitorKeepsFullTrace(t *testing.T) {
	t.Parallel()
	db := New(WithFullTrace())
	db.Append(mev("a", 1))
	db.Append(mev("b", 2))
	db.Append(mev("a", 3))
	db.ResetMonitor("a")
	full := db.Full()
	if len(full) != 3 {
		t.Fatalf("full trace has %d events after reset, want 3 — the reset abandons only the unchecked segment", len(full))
	}
}

// TestResetMonitorClearsDiscardedEvents: a reset truncates the shard's
// slab in place, and a later full drain hands that slab out. The
// discarded events must not ride along past the drained length into
// the pool, which Recycle (clearing only the written prefix) would
// never notice.
func TestResetMonitorClearsDiscardedEvents(t *testing.T) {
	t.Parallel()
	db := New()
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			db.Append(mev("a", int64(i+1)))
		}
	}
	appendN(3000)
	seg, _ := db.DrainMonitorUpTo("a", db.LastSeq(), 0)
	Recycle(seg)
	appendN(2000)
	if got := db.ResetMonitor("a"); got != 2000 {
		t.Fatalf("ResetMonitor dropped %d events, want 2000", got)
	}
	appendN(10)
	seg, _ = db.DrainMonitorUpTo("a", db.LastSeq(), 0)
	if len(seg) != 10 {
		t.Fatalf("drained %d events, want 10", len(seg))
	}
	zeroTail(t, "drain after a reset", seg)
}
