package history

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/state"
)

func ev(pid int64) event.Event {
	return event.Event{
		Monitor: "m",
		Type:    event.Enter,
		Pid:     pid,
		Proc:    "P",
		Flag:    event.Completed,
		Time:    time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC),
	}
}

// drainAll drains every shard through DrainMonitorUpTo, in monitor
// name order, and merges the drained segments into global sequence
// order.
func drainAll(db *DB) event.Seq {
	shards := *db.shards.Load()
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	segs := make([]event.Seq, 0, len(names))
	for _, name := range names {
		seg, _ := db.DrainMonitorUpTo(name, math.MaxInt64, 0)
		segs = append(segs, seg)
	}
	return event.Merge(segs...)
}

// buffered returns the number of events buffered across all shards.
func buffered(db *DB) int {
	shards, unlock := db.lockAllShards()
	defer unlock()
	n := 0
	for _, s := range shards {
		n += len(s.buffered())
	}
	return n
}

func TestAppendAssignsSequentialSeq(t *testing.T) {
	t.Parallel()
	db := New()
	for i := int64(1); i <= 5; i++ {
		got := db.Append(ev(i))
		if got.Seq != i {
			t.Fatalf("Append #%d assigned seq %d", i, got.Seq)
		}
	}
	if db.LastSeq() != 5 || db.Total() != 5 || buffered(db) != 5 {
		t.Fatalf("LastSeq=%d Total=%d buffered=%d, want 5,5,5",
			db.LastSeq(), db.Total(), buffered(db))
	}
}

func TestDrainResetsSegmentNotSeq(t *testing.T) {
	t.Parallel()
	db := New()
	db.Append(ev(1))
	db.Append(ev(2))
	seg := drainAll(db)
	if len(seg) != 2 {
		t.Fatalf("drain returned %d events, want 2", len(seg))
	}
	if buffered(db) != 0 {
		t.Fatalf("buffered after drain = %d, want 0", buffered(db))
	}
	e := db.Append(ev(3))
	if e.Seq != 3 {
		t.Fatalf("seq after drain = %d, want 3 (numbering must continue)", e.Seq)
	}
	seg2 := drainAll(db)
	if len(seg2) != 1 || seg2[0].Seq != 3 {
		t.Fatalf("second drain = %v", seg2)
	}
}

func TestFullTraceRetention(t *testing.T) {
	t.Parallel()
	db := New(WithFullTrace())
	if !db.keepFull {
		t.Fatal("keepFull = false with WithFullTrace")
	}
	db.Append(ev(1))
	drainAll(db)
	db.Append(ev(2))
	full := db.Full()
	if len(full) != 2 || full[0].Seq != 1 || full[1].Seq != 2 {
		t.Fatalf("Full = %v, want both events despite drain", full)
	}
}

func TestFullIsNilWithoutOption(t *testing.T) {
	t.Parallel()
	db := New()
	db.Append(ev(1))
	if db.Full() != nil {
		t.Fatal("Full returned data without WithFullTrace")
	}
	if db.keepFull {
		t.Fatal("keepFull = true without option")
	}
}

func TestExportRoundTrip(t *testing.T) {
	t.Parallel()
	db := New(WithFullTrace())
	for i := int64(1); i <= 4; i++ {
		db.Append(ev(i))
	}
	var jb, bb bytes.Buffer
	if err := event.WriteJSON(&jb, db.Full()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := event.WriteBinary(&bb, db.Full()); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	js, err := event.ReadJSON(&jb)
	if err != nil || len(js) != 4 {
		t.Fatalf("ReadJSON = %d events, err %v", len(js), err)
	}
	bs, err := event.ReadBinary(&bb)
	if err != nil || len(bs) != 4 {
		t.Fatalf("ReadBinary = %d events, err %v", len(bs), err)
	}
}

func TestStateRetentionRequiresFullTrace(t *testing.T) {
	t.Parallel()
	snap := state.Snapshot{Monitor: "m", Resources: 3}

	slim := New()
	slim.AppendState(snap)
	if slim.States() != nil {
		t.Fatal("slim DB retained checkpoint states")
	}
	if _, ok := slim.LastState("m"); ok {
		t.Fatal("slim DB returned a last state")
	}

	full := New(WithFullTrace())
	full.AppendState(snap)
	snap2 := snap
	snap2.Resources = 1
	full.AppendState(snap2)
	full.AppendState(state.Snapshot{Monitor: "other"})
	states := full.States()
	if len(states) != 3 {
		t.Fatalf("States = %d, want 3", len(states))
	}
	last, ok := full.LastState("m")
	if !ok || last.Resources != 1 {
		t.Fatalf("LastState = %+v,%v, want the second m snapshot", last, ok)
	}
	if _, ok := full.LastState("ghost"); ok {
		t.Fatal("LastState for unknown monitor reported ok")
	}
	// Returned snapshots must not alias internal storage.
	states[0].Resources = 99
	if again := full.States(); again[0].Resources == 99 {
		t.Fatal("States aliases internal storage")
	}
}

func TestConcurrentAppendsGetUniqueSeqs(t *testing.T) {
	t.Parallel()
	db := New()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	seqs := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e := db.Append(ev(int64(w + 1)))
				seqs[w] = append(seqs[w], e.Seq)
			}
		}()
	}
	wg.Wait()
	seen := make(map[int64]bool, workers*each)
	for _, ws := range seqs {
		prev := int64(0)
		for _, s := range ws {
			if seen[s] {
				t.Fatalf("duplicate sequence number %d", s)
			}
			seen[s] = true
			if s <= prev {
				t.Fatalf("per-worker seqs not increasing: %d after %d", s, prev)
			}
			prev = s
		}
	}
	if db.Total() != workers*each {
		t.Fatalf("Total = %d, want %d", db.Total(), workers*each)
	}
	if err := drainAll(db).Validate(); err != nil {
		t.Fatalf("drained segment invalid: %v", err)
	}
}
