package detect

import (
	"fmt"
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
)

// The batching flush handshake: monitors recording through
// BatchWriters stage events in lock-free local buffers, and the
// detector must publish those buffers at every checkpoint — while the
// monitors are frozen, which is the happens-before edge making the
// cross-goroutine flush safe — or a checkpoint would replay a
// truncated history. These tests pin that handshake in both
// checkpoint modes: every recorded event reaches the checkpoint even
// when the batch size is far larger than the workload, so nothing
// would ever flush on its own.

func batchFixture(t *testing.T, holdWorld bool, monitors int) (*history.DB, []*monitor.Monitor, *Detector, *proc.Runtime) {
	t.Helper()
	db := history.New()
	clk := clock.NewVirtual(epoch)
	mons := make([]*monitor.Monitor, monitors)
	for i := range mons {
		spec := monitor.Spec{
			Name: fmt.Sprintf("m%d", i), Kind: monitor.OperationManager,
			Conditions: []string{"ok"},
		}
		// Batch far larger than the workload: without the checkpoint
		// handshake not a single event would be published.
		m, err := monitor.New(spec,
			monitor.WithRecorder(db.NewBatchWriter(spec.Name, 4096)),
			monitor.WithClock(clk),
		)
		if err != nil {
			t.Fatalf("monitor.New: %v", err)
		}
		mons[i] = m
	}
	cfg := Config{Tmax: time.Minute, Tio: time.Minute, Clock: clk, HoldWorld: holdWorld}
	return db, mons, New(db, cfg, mons...), proc.NewRuntime()
}

func TestCheckpointFlushesBatchWriters(t *testing.T) {
	t.Parallel()
	for _, holdWorld := range []bool{true, false} {
		holdWorld := holdWorld
		name := "per-monitor"
		if holdWorld {
			name = "hold-world"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const monitors, opsPerMonitor = 3, 5
			db, mons, det, rt := batchFixture(t, holdWorld, monitors)
			for _, m := range mons {
				m := m
				for op := 0; op < opsPerMonitor; op++ {
					rt.Spawn("w", func(p *proc.P) {
						if err := m.Enter(p, "Op"); err != nil {
							return
						}
						_ = m.Exit(p, "Op")
					})
					rt.Join() // serial ops: deterministic event count
				}
			}
			// Enter + Exit record 2 events per op; all of them are still
			// staged (batch 4096 never fills).
			want := monitors * opsPerMonitor * 2
			if got := db.Total(); got != 0 {
				t.Fatalf("events published before checkpoint: total = %d", got)
			}
			if vs := det.CheckNow(); len(vs) != 0 {
				t.Fatalf("clean workload produced violations: %v", vs)
			}
			if got := det.Stats().Events; got != want {
				t.Fatalf("checkpoint replayed %d events, want %d — the flush handshake missed staged writers", got, want)
			}
			if got := db.Total(); int(got) != want {
				t.Fatalf("published %d events, want %d", got, want)
			}
			// A second checkpoint sees nothing new.
			det.CheckNow()
			if got := det.Stats().Events; got != want {
				t.Fatalf("idle checkpoint replayed events: %d, want %d", got, want)
			}
		})
	}
}

// TestPerMonitorFlushLeavesOtherWritersAlone pins the targeted half of
// the handshake: a per-monitor checkpoint of monitor A must not reach
// into monitor B's writer (B's producer may be live — flushing it from
// the checkpoint goroutine would race). The detector checks every
// monitor at CheckNow, so the pin drives the history-layer API the way
// the per-monitor path does.
func TestPerMonitorFlushLeavesOtherWritersAlone(t *testing.T) {
	t.Parallel()
	db := history.New()
	clk := clock.NewVirtual(epoch)
	spec := monitor.Spec{Name: "a", Kind: monitor.OperationManager, Conditions: []string{"ok"}}
	wa := db.NewBatchWriter("a", 4096)
	m, err := monitor.New(spec, monitor.WithRecorder(wa), monitor.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	wb := db.NewBatchWriter("b", 4096)
	wb.Append(event.Event{Monitor: "b", Type: event.Enter, Pid: 1, Proc: "Op", Time: epoch})
	rt := proc.NewRuntime()
	rt.Spawn("w", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		_ = m.Exit(p, "Op")
	})
	rt.Join()

	m.Freeze()
	db.FlushMonitorWriters(m.Name())
	m.Thaw()
	if got := wa.Pending(); got != 0 {
		t.Fatalf("frozen monitor's writer not flushed: pending = %d", got)
	}
	if got := wb.Pending(); got != 1 {
		t.Fatalf("unrelated writer flushed by a per-monitor checkpoint: pending = %d", got)
	}
	wb.Close()
}

// TestCloseWritersDuringCheckpoints closes monitor-fed writers once
// their producers are done while checkpoints keep running on another
// goroutine, as a caller that joins its workload and then closes its
// writers does. Close and the checkpoint handshake may then reach the
// same staged block at once; each block must still publish exactly
// once, or the replay sees a duplicated Enter or Exit and reports a
// spurious fault.
func TestCloseWritersDuringCheckpoints(t *testing.T) {
	t.Parallel()
	for _, hold := range []bool{true, false} {
		hold := hold
		name := "hold-world"
		if !hold {
			name = "per-monitor"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const monitors, procs, pairs = 6, 2, 100
			db := history.New()
			mons := make([]*monitor.Monitor, monitors)
			writers := make([]*history.BatchWriter, monitors)
			for i := range mons {
				spec := monitor.Spec{
					Name: fmt.Sprintf("m%d", i), Kind: monitor.OperationManager,
					Conditions: []string{"ok"}, Procedures: []string{"Op"},
				}
				// 400 events per monitor: the last block is partial, so
				// Close has something to publish.
				writers[i] = db.NewBatchWriter(spec.Name, 64)
				m, err := monitor.New(spec, monitor.WithRecorder(writers[i]))
				if err != nil {
					t.Fatal(err)
				}
				mons[i] = m
			}
			det := New(db, Config{
				Tmax: time.Minute, Tio: time.Minute,
				Clock: clock.Real{}, HoldWorld: hold, Workers: 4, BatchSize: 16,
			}, mons...)
			done := make(chan struct{})
			go func() {
				defer close(done)
				hammer(proc.NewRuntime(), mons, procs, pairs)
				for _, w := range writers {
					w.Close()
				}
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				if vs := det.CheckNow(); len(vs) != 0 {
					t.Fatalf("clean workload produced violations: %v", vs)
				}
			}
			want := monitors * procs * pairs * 2
			if got := db.Total(); int(got) != want {
				t.Fatalf("published %d events, want %d", got, want)
			}
			if got := det.Stats().Events; got != want {
				t.Fatalf("checkpoints replayed %d events, want %d", got, want)
			}
		})
	}
}
