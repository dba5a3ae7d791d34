package export

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	"robustmon/internal/proc"
)

// opMonitor returns a one-procedure operation manager recording into
// db.
func opMonitor(t *testing.T, name string, db *history.DB) *monitor.Monitor {
	t.Helper()
	m, err := monitor.New(monitor.Spec{
		Name:       name,
		Kind:       monitor.OperationManager,
		Conditions: []string{"ok"},
		Procedures: []string{"Op"},
	}, monitor.WithRecorder(db))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckpointExportRecyclesSlabs closes the slab loop end to end: a
// detector replays each checkpoint's segment and hands it to an
// Exporter over a WALSink, whose writer recycles the slab once written,
// so every checkpoint after warm-up takes its shard's replacement slab
// from the pool — one pool hit and no miss per cycle.
//
// Not parallel, on one P and with GC off: the segment pool is
// package-global, a collection empties it, and sync.Pool parks each
// Put in the putting P's private slot, which a Get on another P cannot
// see. With more than one P the writer's Recycle and the detector's
// drain can run on different Ps, and then the drain misses a slab the
// pool holds, however many spares the pool was given beforehand.
func TestCheckpointExportRecyclesSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })

	reg := obs.NewRegistry()
	db := history.New(history.WithObs(reg))
	sink, err := NewWALSink(t.TempDir(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exp := New(sink, Config{Policy: Block})
	m := opMonitor(t, "m", db)
	det := detect.New(db, detect.Config{
		Tmax: time.Hour, Tio: time.Hour, HoldWorld: true, Exporter: exp,
	}, m)

	// One cycle: 1,024 Enter/Exit pairs record 2,048 events, exactly a
	// slab class; the checkpoint drains them and the flush waits
	// until the writer has written and recycled the segment.
	const cycleEvents = 2048
	rt := proc.NewRuntime()
	cycle := func() {
		before := db.Total()
		rt.Spawn("driver", func(p *proc.P) {
			for j := 0; j < cycleEvents/2; j++ {
				if err := m.Enter(p, "Op"); err != nil {
					t.Error(err)
					return
				}
				_ = m.Exit(p, "Op")
			}
		})
		rt.Join()
		if n := db.Total() - before; n != cycleEvents {
			t.Fatalf("cycle recorded %d events, want %d", n, cycleEvents)
		}
		if vs := det.CheckNow(); len(vs) != 0 {
			t.Fatalf("fault-free cycle reported violations: %v", vs)
		}
		if err := exp.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	pool := func() (hit, miss int64) {
		snap := reg.Snapshot()
		hit, _ = snap.Counter("history_pool_hit_total")
		miss, _ = snap.Counter("history_pool_miss_total")
		return hit, miss
	}

	// Warm-up: the first cycles take their slabs from a cold pool.
	for i := 0; i < 3; i++ {
		cycle()
	}
	hit0, miss0 := pool()
	for i := 0; i < 8; i++ {
		cycle()
		hit, miss := pool()
		if hit != hit0+1 || miss != miss0 {
			t.Fatalf("cycle %d: pool hits +%d, misses +%d; want +1, +0", i, hit-hit0, miss-miss0)
		}
		hit0, miss0 = hit, miss
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReplayMatchesFullTraceExportRecycled is the -race variant of
// TestReplayMatchesFullTraceExport for the closed slab loop. Every
// checkpoint drains at least one 2,048-event segment, large enough for
// its slab to cycle through history's pool, while the drivers keep
// appending into slabs the exporter's writer has recycled — in
// per-monitor mode even during the checkpoint. Replaying the export
// must still be byte-identical to the full trace.
func TestReplayMatchesFullTraceExportRecycled(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name      string
		holdWorld bool
		batch     int
	}{
		{"holdworld", true, 0},
		{"permonitor-batched", false, 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			sink, err := NewWALSink(dir, WALConfig{MaxFileBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			exp := New(sink, Config{Policy: Block})
			db := history.New(history.WithFullTrace())
			mons := []*monitor.Monitor{opMonitor(t, "mA", db), opMonitor(t, "mB", db)}
			det := detect.New(db, detect.Config{
				Tmax: time.Hour, Tio: time.Hour,
				HoldWorld: tc.holdWorld, BatchSize: tc.batch, Exporter: exp,
			}, mons...)

			// The first driver checkpoints after every checkEvery pairs:
			// 2,048 events of its own monitor per checkpoint, and about as
			// many of the other driver's.
			const (
				pairs      = 8 * 1024
				checkEvery = 1024
			)
			rt := proc.NewRuntime()
			for i, m := range mons {
				rt.Spawn("driver", func(p *proc.P) {
					for j := 1; j <= pairs; j++ {
						if err := m.Enter(p, "Op"); err != nil {
							t.Error(err)
							return
						}
						_ = m.Exit(p, "Op")
						if i == 0 && j%checkEvery == 0 {
							det.CheckNow()
						}
					}
				})
			}
			rt.Join()
			det.CheckNow()
			if vs := det.Violations(); len(vs) != 0 {
				t.Fatalf("fault-free workload reported violations: %v", vs[0])
			}
			if err := exp.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if st := exp.Stats(); st.DroppedSegments != 0 {
				t.Fatalf("Block-policy exporter dropped segments: %+v", st)
			}

			var want bytes.Buffer
			if err := event.WriteBinary(&want, db.Full()); err != nil {
				t.Fatalf("WriteBinary(full trace): %v", err)
			}
			rep, err := ReadDir(dir)
			if err != nil {
				t.Fatalf("ReadDir: %v", err)
			}
			var got bytes.Buffer
			if err := event.WriteBinary(&got, rep.Events); err != nil {
				t.Fatalf("WriteBinary(replay): %v", err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("replayed export differs from WithFullTrace export: %d vs %d bytes, %d vs %d events",
					got.Len(), want.Len(), len(rep.Events), int(db.Total()))
			}
		})
	}
}

// TestMemorySinkKeepsRecycledSegments: MemorySink is the one sink that
// keeps segments, so it stores copies — the exporter recycles the slab
// a segment arrived in as soon as WriteSegment returns.
//
// Not parallel: the probe reads a slab after it went back to the
// package-global pool, where no other test may take it meanwhile.
func TestMemorySinkKeepsRecycledSegments(t *testing.T) {
	seg := append(make(event.Seq, 0, 1024), tseq("m", 1, 1024)...)
	want := append(event.Seq(nil), seg...)
	sink := &MemorySink{}
	exp := New(sink, Config{Policy: Block})
	exp.Consume("m", seg)
	if err := exp.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// The probe breaks Consume's contract on purpose: Recycle clears a
	// slab before pooling it, so a zeroed event shows the writer
	// recycled this one.
	if seg[0] != (event.Event{}) {
		t.Fatalf("written segment's slab was not recycled: seg[0] = %+v", seg[0])
	}
	got := sink.Segments()
	if len(got) != 1 || got[0].Monitor != "m" || !reflect.DeepEqual(got[0].Events, want) {
		t.Fatalf("MemorySink lost its segment after the slab was recycled: %d segments", len(got))
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
