package history

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
)

func mev(monitor string, pid int64) event.Event {
	return event.Event{
		Monitor: monitor,
		Type:    event.Enter,
		Pid:     pid,
		Proc:    "P",
		Flag:    event.Completed,
		Time:    time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC),
	}
}

func TestShardPerMonitor(t *testing.T) {
	t.Parallel()
	db := New()
	for _, m := range []string{"a", "b", "c", "a"} {
		db.Append(mev(m, 1))
	}
	if got := len(*db.shards.Load()); got != 3 {
		t.Fatalf("Shards = %d, want 3 (one per monitor)", got)
	}
}

func TestDrainMergesGlobalOrder(t *testing.T) {
	t.Parallel()
	db := New()
	// Interleave three monitors; the drain must restore the global
	// append order by sequence number.
	mons := []string{"a", "b", "c"}
	for i := 0; i < 30; i++ {
		db.Append(mev(mons[i%3], int64(i+1)))
	}
	seg := drainAll(db)
	if len(seg) != 30 {
		t.Fatalf("drain returned %d events, want 30", len(seg))
	}
	if err := seg.Validate(); err != nil {
		t.Fatalf("merged segment out of order: %v", err)
	}
	for i, e := range seg {
		if e.Seq != int64(i+1) {
			t.Fatalf("seg[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

func TestDrainMonitorTouchesOnlyOwnShard(t *testing.T) {
	t.Parallel()
	db := New()
	db.Append(mev("a", 1))
	db.Append(mev("b", 2))
	db.Append(mev("a", 3))

	seg, _ := db.DrainMonitorUpTo("a", math.MaxInt64, 0)
	if len(seg) != 2 || seg[0].Monitor != "a" || seg[1].Monitor != "a" {
		t.Fatalf("DrainMonitorUpTo(a) = %v, want the two a events", seg)
	}
	if buffered(db) != 1 {
		t.Fatalf("buffered after per-monitor drain = %d, want 1 (b retained)", buffered(db))
	}
	rest := drainAll(db)
	if len(rest) != 1 || rest[0].Monitor != "b" {
		t.Fatalf("remaining segment = %v, want only b", rest)
	}
}

// TestExportParityShardedVsGlobal feeds a deterministic event stream
// to a sharded database and requires its exports to be byte-identical
// to the stream itself in global append order (Seq = i+1), encoded
// directly: sharding must not change the recorded trace.
func TestExportParityShardedVsGlobal(t *testing.T) {
	t.Parallel()
	sharded := New(WithFullTrace())
	mons := []string{"alpha", "beta", "gamma", "delta"}
	var stream event.Seq
	for i := 0; i < 200; i++ {
		e := mev(mons[i%len(mons)], int64(i%7+1))
		sharded.Append(e)
		e.Seq = int64(i + 1)
		stream = append(stream, e)
	}
	var sj, gj, sb, gb bytes.Buffer
	if err := event.WriteJSON(&sj, sharded.Full()); err != nil {
		t.Fatal(err)
	}
	if err := event.WriteJSON(&gj, stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), gj.Bytes()) {
		t.Fatal("sharded JSON export differs from the appended stream")
	}
	if err := event.WriteBinary(&sb, sharded.Full()); err != nil {
		t.Fatal(err)
	}
	if err := event.WriteBinary(&gb, stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), gb.Bytes()) {
		t.Fatal("sharded binary export differs from the appended stream")
	}
}

// TestConcurrentMultiMonitorAppends hammers one database from many
// goroutines, each writing its own monitor, with concurrent Fulls and
// drains — the -race workout for the shard map and atomic counter.
func TestConcurrentMultiMonitorAppends(t *testing.T) {
	t.Parallel()
	db := New(WithFullTrace())
	const monitors, perMonitor = 8, 300
	var reader, producers sync.WaitGroup
	stop := make(chan struct{})
	var drainMu sync.Mutex
	var drained event.Seq
	reader.Add(1)
	go func() { // concurrent checkpoint-ish reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// A mid-run Full must be a consistent prefix of the run:
				// contiguous sequence numbers with nothing missing.
				full := db.Full()
				for i, e := range full {
					if e.Seq != int64(i+1) {
						t.Errorf("mid-run Full torn: position %d has seq %d", i, e.Seq)
						return
					}
				}
				drainMu.Lock()
				drained = append(drained, drainAll(db)...)
				drainMu.Unlock()
			}
		}
	}()
	for m := 0; m < monitors; m++ {
		name := fmt.Sprintf("mon%d", m)
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < perMonitor; i++ {
				db.Append(mev(name, int64(i+1)))
			}
		}()
	}
	producers.Wait()
	close(stop)
	reader.Wait()
	drained = append(drained, drainAll(db)...)

	if db.Total() != monitors*perMonitor {
		t.Fatalf("Total = %d, want %d", db.Total(), monitors*perMonitor)
	}
	if len(drained) != monitors*perMonitor {
		t.Fatalf("drained %d events in total, want %d", len(drained), monitors*perMonitor)
	}
	seen := make(map[int64]bool, len(drained))
	for _, e := range drained {
		if e.Seq < 1 || e.Seq > int64(monitors*perMonitor) || seen[e.Seq] {
			t.Fatalf("bad or duplicate sequence number %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	// The full trace is the merged, seq-ordered union of all shards.
	full := db.Full()
	if err := full.Validate(); err != nil {
		t.Fatalf("full trace invalid: %v", err)
	}
	if len(full) != monitors*perMonitor {
		t.Fatalf("full trace has %d events, want %d", len(full), monitors*perMonitor)
	}
}

// teeRecorder collects drain-tee observations. It copies each segment:
// a tee may read a segment only during its call.
type teeRecorder struct {
	mu    sync.Mutex
	pairs []struct {
		monitor string
		seg     event.Seq
	}
}

func (r *teeRecorder) tee(monitor string, seg event.Seq) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pairs = append(r.pairs, struct {
		monitor string
		seg     event.Seq
	}{monitor, append(event.Seq(nil), seg...)})
}

func TestDrainTeeObservesPerMonitorSegments(t *testing.T) {
	t.Parallel()
	rec := &teeRecorder{}
	db := New()
	db.AddDrainTee(rec.tee)
	for _, m := range []string{"a", "b", "a", "c"} {
		db.Append(mev(m, 1))
	}
	drained := drainAll(db)
	if len(drained) != 4 {
		t.Fatalf("drain returned %d events, want 4", len(drained))
	}
	if len(rec.pairs) != 3 {
		t.Fatalf("tee observed %d segments, want 3 (one per monitor)", len(rec.pairs))
	}
	total := 0
	for _, p := range rec.pairs {
		total += len(p.seg)
		for _, e := range p.seg {
			if e.Monitor != p.monitor {
				t.Fatalf("tee segment for %q contains event of %q", p.monitor, e.Monitor)
			}
		}
	}
	if total != 4 {
		t.Fatalf("tee observed %d events in total, want 4", total)
	}
	// A drain with nothing buffered must not call the tee.
	drainAll(db)
	if len(rec.pairs) != 3 {
		t.Fatalf("empty drain fed the tee (now %d segments)", len(rec.pairs))
	}
}

func TestDrainMonitorFeedsTee(t *testing.T) {
	t.Parallel()
	rec := &teeRecorder{}
	db := New()
	db.AddDrainTee(rec.tee)
	db.Append(mev("a", 1))
	db.Append(mev("b", 2))
	if got, _ := db.DrainMonitorUpTo("a", math.MaxInt64, 0); len(got) != 1 {
		t.Fatalf("DrainMonitorUpTo(a) = %d events, want 1", len(got))
	}
	if len(rec.pairs) != 1 || rec.pairs[0].monitor != "a" || len(rec.pairs[0].seg) != 1 {
		t.Fatalf("tee observed %+v, want one single-event segment for a", rec.pairs)
	}
	// Draining another monitor feeds the tee that monitor's segment only.
	db.DrainMonitorUpTo("b", math.MaxInt64, 0)
	if len(rec.pairs) != 2 || rec.pairs[1].monitor != "b" || len(rec.pairs[1].seg) != 1 {
		t.Fatalf("tee observed %+v, want a's then b's single-event segment", rec.pairs)
	}
}

func TestAddDrainTeeIsAdditive(t *testing.T) {
	t.Parallel()
	a, b := &teeRecorder{}, &teeRecorder{}
	db := New()
	db.AddDrainTee(a.tee)
	db.AddDrainTee(b.tee) // must not unwire a — both observe everything
	db.Append(mev("m", 1))
	db.DrainMonitorUpTo("m", math.MaxInt64, 0)
	db.Append(mev("m", 2))
	drainAll(db)
	if len(a.pairs) != 2 || len(b.pairs) != 2 {
		t.Fatalf("tees observed %d and %d segments, want 2 and 2", len(a.pairs), len(b.pairs))
	}
	// A tee added later observes only the drains from then on.
	c := &teeRecorder{}
	db.AddDrainTee(c.tee)
	db.Append(mev("m", 3))
	drainAll(db)
	if len(a.pairs) != 3 || len(b.pairs) != 3 || len(c.pairs) != 1 {
		t.Fatalf("after a third AddDrainTee: observed %d/%d/%d segments, want 3/3/1", len(a.pairs), len(b.pairs), len(c.pairs))
	}
}
