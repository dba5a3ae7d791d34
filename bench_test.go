// Benchmark harness regenerating the paper's evaluation artefacts:
//
//   - BenchmarkTable1_*      — E2, Table 1: overhead of the augmented
//     monitor vs the bare monitor per checking interval × workload.
//     The "ratio" metric is the paper's "ratio for overheads".
//     Intervals are scaled from the paper's 0.5-3 s down to 5-30 ms so
//     the suite stays fast; cmd/monbench runs the full-scale sweep.
//   - BenchmarkE1FaultCoverage — E1: the full 21-kind injection sweep;
//     the "coverage" metric must be 21.
//   - BenchmarkFigure1Architecture — E3: the structural wiring check.
//   - BenchmarkAblation*     — the design-choice ablations listed in
//     DESIGN.md §8 (stop-the-world gate, pruned segments vs full-trace
//     FD checking, real-time order checking).
//   - Primitive microbenches — per-operation cost of the monitor with
//     and without the extension, history appends, path-expression
//     steps, checkpoints by segment size.
//   - Sharding comparatives — BenchmarkHistoryGlobal vs
//     BenchmarkHistorySharded (the same parallel recording serialised
//     behind one benchmark-side mutex vs on the per-monitor shards
//     alone) and BenchmarkCheckNowManyMonitors
//     (the parallel checkpoint pipeline across N monitors, in both
//     hold-world and per-monitor modes).
//   - BenchmarkRecordCheckExport — the closed record → checkpoint →
//     export loop on one hot monitor and on 64 monitors with batched
//     per-monitor checkpoints, timed with recording included, so its
//     B/op shows whether drained slabs come back to the shard.
//   - BenchmarkSegmentCodec — the segment codec's encode and in-place
//     check, in ns per event.
//   - BenchmarkNetShip — one batched checkpoint's segment shipped
//     through a NetSink to a Collector over loopback, in ns and B per
//     segment.
package robustmon_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/apps/kvstore"
	"robustmon/internal/checklists"
	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/experiment"
	"robustmon/internal/export"
	netexport "robustmon/internal/export/net"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/pathexpr"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
	"robustmon/internal/state"
	"robustmon/internal/verify"
)

// benchIntervals are the Table 1 checking intervals, scaled 1:100 from
// the paper's 0.5s/1s/2s/3s.
var benchIntervals = []time.Duration{
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	30 * time.Millisecond,
}

const (
	benchOps   = 4000
	benchProcs = 4
)

// BenchmarkTable1 regenerates every cell of Table 1. Each sub-benchmark
// reports the extended run's wall time per op and the overhead ratio
// against a baseline measured in the same invocation.
func BenchmarkTable1(b *testing.B) {
	for _, w := range experiment.AllWorkloads() {
		w := w
		b.Run(string(w), func(b *testing.B) {
			base, _, err := experiment.MeasureWorkload(w, benchOps, benchProcs, 0)
			if err != nil {
				b.Fatalf("baseline: %v", err)
			}
			for _, ivl := range benchIntervals {
				ivl := ivl
				b.Run(fmt.Sprintf("T=%v", ivl), func(b *testing.B) {
					var total time.Duration
					var checks int
					for i := 0; i < b.N; i++ {
						d, st, err := experiment.MeasureWorkload(w, benchOps, benchProcs, ivl)
						if err != nil {
							b.Fatalf("extended: %v", err)
						}
						total += d
						checks += st.Checks
					}
					mean := total / time.Duration(b.N)
					b.ReportMetric(experiment.Ratio(mean, base), "ratio")
					b.ReportMetric(float64(checks)/float64(b.N), "checks/run")
					b.ReportMetric(float64(mean.Nanoseconds())/benchOps, "ns/monitor-op")
				})
			}
		})
	}
}

// BenchmarkE1FaultCoverage times the full robustness experiment and
// asserts the paper's 21/21 result as a metric.
func BenchmarkE1FaultCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiment.RunCoverage(faults.AllKinds())
		detected, total := experiment.Coverage(results)
		if detected != total {
			b.Fatalf("coverage %d/%d", detected, total)
		}
		b.ReportMetric(float64(detected), "coverage")
	}
}

// BenchmarkFigure1Architecture times the structural verification of the
// Figure 1 wiring.
func BenchmarkFigure1Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiment.VerifyFigure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- primitive microbenches -----------------------------------------

func managerSpec() monitor.Spec {
	return monitor.Spec{
		Name: "m", Kind: monitor.OperationManager,
		Conditions: []string{"ok"}, Procedures: []string{"Op"},
	}
}

// benchEnterExit measures one uncontended Enter+Exit pair.
func benchEnterExit(b *testing.B, opts ...monitor.Option) {
	m, err := monitor.New(managerSpec(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	rt := proc.NewRuntime()
	done := make(chan struct{})
	rt.Spawn("bench", func(p *proc.P) {
		defer close(done)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Enter(p, "Op"); err != nil {
				return
			}
			_ = m.Exit(p, "Op")
		}
	})
	<-done
	rt.Join()
}

// BenchmarkEnterExitBare is the no-extension baseline primitive cost.
func BenchmarkEnterExitBare(b *testing.B) {
	benchEnterExit(b)
}

// BenchmarkEnterExitRecorded adds history recording (the data-gathering
// routine) to every primitive.
func BenchmarkEnterExitRecorded(b *testing.B) {
	benchEnterExit(b, monitor.WithRecorder(history.New()))
}

// BenchmarkEnterExitRealtimeOrder adds the real-time calling-order
// checker in front of the database (allocator configuration).
func BenchmarkEnterExitRealtimeOrder(b *testing.B) {
	spec := monitor.Spec{
		Name: "m", Kind: monitor.ResourceAllocator,
		Conditions: []string{"ok"}, Procedures: []string{"Op", "Op2"},
		CallOrder: "path Op , Op2 end", AcquireProc: "Op", ReleaseProc: "Op2",
	}
	db := history.New()
	rt, err := detect.NewRealTime(db, []monitor.Spec{spec}, nil)
	if err != nil {
		b.Fatal(err)
	}
	m, err := monitor.New(spec, monitor.WithRecorder(rt))
	if err != nil {
		b.Fatal(err)
	}
	runtime := proc.NewRuntime()
	done := make(chan struct{})
	runtime.Spawn("bench", func(p *proc.P) {
		defer close(done)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Enter(p, "Op"); err != nil {
				return
			}
			_ = m.Exit(p, "Op")
		}
	})
	<-done
	runtime.Join()
}

// BenchmarkHistoryAppend measures the raw event-recording cost.
func BenchmarkHistoryAppend(b *testing.B) {
	db := history.New()
	e := event.Event{Monitor: "m", Type: event.Enter, Pid: 1, Proc: "Op", Flag: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Append(e)
		if i%4096 == 4095 {
			// Keep the segment from growing unboundedly.
			seg, _ := db.DrainMonitorUpTo("m", math.MaxInt64, 0)
			history.Recycle(seg)
		}
	}
}

// benchHistoryAppendParallel measures concurrent appends from many
// monitors into one database — the contention profile the sharding
// targets. Each parallel worker writes its own monitor name, as
// distinct monitors wired to a shared database do. A non-nil global
// serialises every append and drain behind that one mutex: the
// single-lock profile the per-monitor shards replace.
func benchHistoryAppendParallel(b *testing.B, global *sync.Mutex) {
	db := history.New()
	var worker int64
	b.RunParallel(func(pb *testing.PB) {
		id := atomic.AddInt64(&worker, 1)
		e := event.Event{
			Monitor: fmt.Sprintf("mon%02d", id),
			Type:    event.Enter, Pid: id, Proc: "Op", Flag: 1,
		}
		i := 0
		for pb.Next() {
			if global != nil {
				global.Lock()
			}
			db.Append(e)
			if i++; i%4096 == 0 {
				// Keep the shard bounded.
				seg, _ := db.DrainMonitorUpTo(e.Monitor, math.MaxInt64, 0)
				history.Recycle(seg)
			}
			if global != nil {
				global.Unlock()
			}
		}
	})
}

// BenchmarkHistoryGlobal is the single-mutex profile: every monitor
// funnels through one lock.
func BenchmarkHistoryGlobal(b *testing.B) {
	benchHistoryAppendParallel(b, &sync.Mutex{})
}

// BenchmarkHistorySharded is the same workload on per-monitor shards;
// the speedup over BenchmarkHistoryGlobal is what the sharding buys.
func BenchmarkHistorySharded(b *testing.B) {
	benchHistoryAppendParallel(b, nil)
}

// BenchmarkCheckNowManyMonitors measures one checkpoint over N
// monitors with full segments, comparing the stop-the-world barrier
// against the per-monitor pipeline. The per-monitor work is
// distributed across the detector's worker pool in both modes.
func BenchmarkCheckNowManyMonitors(b *testing.B) {
	const perMonitorEvents = 256
	for _, nMons := range []int{4, 16} {
		for _, hold := range []bool{true, false} {
			name := fmt.Sprintf("monitors=%d/hold-world", nMons)
			if !hold {
				name = fmt.Sprintf("monitors=%d/per-monitor", nMons)
			}
			b.Run(name, func(b *testing.B) {
				db := history.New()
				clk := clock.NewVirtual(time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC))
				mons := make([]*monitor.Monitor, nMons)
				for i := range mons {
					spec := monitor.Spec{
						Name: fmt.Sprintf("mon%02d", i), Kind: monitor.OperationManager,
						Conditions: []string{"ok"}, Procedures: []string{"Op"},
					}
					m, err := monitor.New(spec, monitor.WithRecorder(db), monitor.WithClock(clk))
					if err != nil {
						b.Fatal(err)
					}
					mons[i] = m
				}
				det := detect.New(db, detect.Config{Clock: clk, HoldWorld: hold}, mons...)
				rt := proc.NewRuntime()
				fill := func() {
					for _, m := range mons {
						m := m
						rt.Spawn("filler", func(p *proc.P) {
							for j := 0; j < perMonitorEvents/2; j++ {
								if err := m.Enter(p, "Op"); err != nil {
									return
								}
								_ = m.Exit(p, "Op")
							}
						})
					}
					rt.Join()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fill()
					b.StartTimer()
					if vs := det.CheckNow(); len(vs) != 0 {
						b.Fatalf("violations: %v", vs)
					}
				}
				b.ReportMetric(float64(nMons*perMonitorEvents), "events/check")
			})
		}
	}
}

// BenchmarkPathExprStep measures one matcher step on a realistic order
// declaration.
func BenchmarkPathExprStep(b *testing.B) {
	p := pathexpr.MustParse("path Open ; { Read , Write } ; Close end")
	m := p.NewMatcher()
	word := []string{"Open", "Read", "Write", "Read", "Close"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(word[i%len(word)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures one CheckNow over segments of different
// sizes — the per-check cost whose amortisation produces the Table 1
// shape.
func BenchmarkCheckpoint(b *testing.B) {
	for _, segSize := range []int{0, 64, 512, 4096} {
		segSize := segSize
		b.Run(fmt.Sprintf("segment=%d", segSize), func(b *testing.B) {
			db := history.New()
			clk := clock.NewVirtual(time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC))
			m, err := monitor.New(managerSpec(),
				monitor.WithRecorder(db), monitor.WithClock(clk))
			if err != nil {
				b.Fatal(err)
			}
			det := detect.New(db, detect.Config{Clock: clk, HoldWorld: true}, m)
			rt := proc.NewRuntime()
			fill := func() {
				rt.Spawn("filler", func(p *proc.P) {
					for j := 0; j < segSize/2; j++ {
						if err := m.Enter(p, "Op"); err != nil {
							return
						}
						_ = m.Exit(p, "Op")
					}
				})
				rt.Join()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill()
				b.StartTimer()
				if vs := det.CheckNow(); len(vs) != 0 {
					b.Fatalf("violations: %v", vs)
				}
			}
		})
	}
}

// BenchmarkRecordCheckExport times one monitor call on the closed
// record → checkpoint → export loop, in the shapes of two of the
// end-to-end benchmark's workloads:
//
//   - monitors=1: one hot bounded buffer, a hold-world unbatched
//     checkpoint every 16,384 calls (32,768 events, a slab class), as
//     buffer-wal records;
//   - monitors=64/batch=256: 64 bounded buffers called in turn, with
//     per-monitor checkpoints draining 256-event batches every 20,000
//     calls (~625 events per monitor: two batch cuts and a final
//     batch), as fanout-fleet records.
//
// Each feeds an Exporter over a WALSink whose writer recycles each
// written segment's slab into the history pool for the shard's next
// replacement. Unlike BenchmarkCheckpoint, which fills its segments
// with the timer stopped, the timed loop includes recording, so B/op
// shows a shard regrowing its slab after a checkpoint, and on the
// batched shape what the batch cuts cost. Run with -benchmem.
func BenchmarkRecordCheckExport(b *testing.B) {
	b.Run("monitors=1", func(b *testing.B) {
		benchRecordCheckExport(b, 1, 16384, detect.Config{HoldWorld: true})
	})
	b.Run("monitors=64/batch=256", func(b *testing.B) {
		benchRecordCheckExport(b, 64, 20000, detect.Config{BatchSize: 256})
	})
}

// benchRecordCheckExport runs BenchmarkRecordCheckExport's loop over
// the given number of recorded bounded buffers: call i sends to
// buffer i/2 mod n when even and receives from it when odd, so no
// call blocks, and a checkpoint with cfg (plus the exporter) runs
// every checkEveryOps calls.
func benchRecordCheckExport(b *testing.B, monitors, checkEveryOps int, cfg detect.Config) {
	db := history.New()
	sink, err := export.NewWALSink(b.TempDir(), export.WALConfig{})
	if err != nil {
		b.Fatal(err)
	}
	exp := export.New(sink, export.Config{Policy: export.Block})
	bufs := make([]*boundedbuffer.Buffer, monitors)
	mons := make([]*monitor.Monitor, monitors)
	for k := range bufs {
		bufs[k], err = boundedbuffer.New(16,
			boundedbuffer.WithName(fmt.Sprintf("buf%02d", k)),
			boundedbuffer.WithMonitorOptions(monitor.WithRecorder(db)))
		if err != nil {
			b.Fatal(err)
		}
		mons[k] = bufs[k].Monitor()
	}
	cfg.Exporter = exp
	det := detect.New(db, cfg, mons...)
	rt := proc.NewRuntime()
	b.ReportAllocs()
	b.ResetTimer()
	rt.Spawn("load", func(p *proc.P) {
		for i := 0; i < b.N; i++ {
			buf := bufs[i/2%monitors]
			var err error
			if i%2 == 0 {
				err = buf.Send(p, i)
			} else {
				_, err = buf.Receive(p)
			}
			if err != nil {
				b.Error(err)
				return
			}
			if (i+1)%checkEveryOps == 0 {
				if vs := det.CheckNow(); len(vs) != 0 {
					b.Errorf("violations: %v", vs)
					return
				}
			}
		}
	})
	rt.Join()
	if err := exp.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := exp.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSegmentCodec measures the segment codec per event: the
// producer's encode (event.AppendBinary, as WALSink.WriteSegment and
// AppendSegmentRecord call it) and the collector's in-place check
// (event.VerifyBinary, as WALSink.WriteEncoded calls it), on a
// 16,384-event one-monitor segment of a bounded buffer (buffer-wal's
// shape) and on a 256-event batch of one of 64 kvstore monitors
// (fanout-fleet's). The events are recorded by the real apps.
func BenchmarkSegmentCodec(b *testing.B) {
	for _, tc := range []struct {
		name string
		seg  func(b *testing.B) (event.Seq, string)
	}{
		{"segment=16384", bufferSegment},
		{"batch=256", kvstoreBatch},
	} {
		seg, monitor := tc.seg(b)
		payload := event.AppendBinary(nil, seg)
		perEvent := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seg)), "ns/event")
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			// The first encode grows dst to what every later one needs.
			dst := event.AppendBinary(nil, seg)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = event.AppendBinary(dst[:0], seg)
			}
			perEvent(b)
		})
		b.Run(tc.name+"/verify", func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n, _, _, err := event.VerifyBinary(payload, monitor); err != nil || n != len(seg) {
					b.Fatalf("VerifyBinary = %d, %v; want %d events", n, err, len(seg))
				}
			}
			perEvent(b)
		})
	}
}

// BenchmarkNetShip times shipping one 256-event kvstore segment, a
// batch as fanout-fleet's per-monitor checkpoints drain them, through a
// NetSink to an in-process Collector over loopback: encoding into a
// frame, the serve loop's copy onto the wire, the collector's check and
// WAL write, and the acknowledgements that free the frame. An op is one
// segment, so ns/op and B/op are per segment.
func BenchmarkNetShip(b *testing.B) {
	events, name := kvstoreBatch(b)
	seg := export.Segment{Monitor: name, Events: events}
	col, err := netexport.NewCollector(netexport.CollectorConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- col.Serve(l) }()
	sink, err := netexport.NewNetSink(netexport.NetSinkConfig{Addr: l.Addr().String(), Origin: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.WriteSegment(seg); err != nil {
			b.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	if err := col.Close(); err != nil {
		b.Fatal(err)
	}
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}

// bufferSegment records 4,096 Send/Receive pairs on a bounded buffer
// and drains them as one segment.
func bufferSegment(b *testing.B) (event.Seq, string) {
	db := history.New()
	buf, err := boundedbuffer.New(16, boundedbuffer.WithMonitorOptions(monitor.WithRecorder(db)))
	if err != nil {
		b.Fatal(err)
	}
	rt := proc.NewRuntime()
	rt.Spawn("load", func(p *proc.P) {
		for i := 0; i < 4096; i++ {
			if err := buf.Send(p, i); err != nil {
				b.Error(err)
				return
			}
			if _, err := buf.Receive(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
	rt.Join()
	name := buf.Monitor().Name()
	seg, _ := db.DrainMonitorUpTo(name, db.LastSeq(), 0)
	if len(seg) != 16384 {
		b.Fatalf("recorded %d events, want 16384", len(seg))
	}
	return seg, name
}

// kvstoreBatch records Put+Get round-robin over 64 kvstore monitors
// and drains one monitor's first 256-event batch.
func kvstoreBatch(b *testing.B) (event.Seq, string) {
	db := history.New()
	stores := make([]*kvstore.Store, 64)
	for i := range stores {
		var err error
		stores[i], err = kvstore.New(kvstore.WithName(fmt.Sprintf("kv-%02d", i)),
			kvstore.WithMonitorOptions(monitor.WithRecorder(db)))
		if err != nil {
			b.Fatal(err)
		}
	}
	rt := proc.NewRuntime()
	rt.Spawn("driver", func(p *proc.P) {
		for i := 0; i < 64*64; i++ {
			st := stores[i%len(stores)]
			if err := st.Put(p, "key", "v"); err != nil {
				b.Error(err)
				return
			}
			if _, _, err := st.Get(p, "key"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	rt.Join()
	seg, _ := db.DrainMonitorUpTo("kv-00", db.LastSeq(), 256)
	if len(seg) != 256 {
		b.Fatalf("drained %d events, want 256", len(seg))
	}
	return seg, "kv-00"
}

// --- ablations (DESIGN.md §8) ----------------------------------------

// BenchmarkAblationHoldWorld compares checkpointing with the paper's
// stop-the-world suspension against the concurrent variant.
func BenchmarkAblationHoldWorld(b *testing.B) {
	for _, hold := range []bool{true, false} {
		hold := hold
		name := "suspend"
		if !hold {
			name = "concurrent"
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				d, err := measureManagerWithDetector(hold, 10*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				total += d
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N)/benchOps, "ns/monitor-op")
		})
	}
}

func measureManagerWithDetector(hold bool, interval time.Duration) (time.Duration, error) {
	db := history.New()
	m, err := monitor.New(managerSpec(), monitor.WithRecorder(db))
	if err != nil {
		return 0, err
	}
	det := detect.New(db, detect.Config{
		Interval: interval, Clock: clock.Real{}, HoldWorld: hold,
		Tmax: time.Hour, Tio: time.Hour,
	}, m)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		det.Run(ctx)
	}()
	rt := proc.NewRuntime()
	start := time.Now()
	for w := 0; w < benchProcs; w++ {
		rt.Spawn("worker", func(p *proc.P) {
			for j := 0; j < benchOps/2/benchProcs; j++ {
				if err := m.Enter(p, "Op"); err != nil {
					return
				}
				_ = m.Exit(p, "Op")
			}
		})
	}
	rt.Join()
	elapsed := time.Since(start)
	cancel()
	<-done
	if st := det.Stats(); st.Violations > 0 {
		return 0, fmt.Errorf("fault-free ablation run reported %d violations", st.Violations)
	}
	return elapsed, nil
}

// BenchmarkAblationChecking compares the paper's pruned-segment
// strategy (checking lists over a drained segment) against keeping the
// full trace and running the FD-Rules directly — the accuracy/space
// trade-off §3.3 discusses.
func BenchmarkAblationChecking(b *testing.B) {
	const events = 2048
	mkTrace := func() (event.Seq, monitor.Spec) {
		spec := managerSpec()
		db := history.New(history.WithFullTrace())
		clk := clock.NewVirtual(time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC))
		m, err := monitor.New(spec, monitor.WithRecorder(db), monitor.WithClock(clk))
		if err != nil {
			b.Fatal(err)
		}
		rt := proc.NewRuntime()
		rt.Spawn("filler", func(p *proc.P) {
			for j := 0; j < events/2; j++ {
				if err := m.Enter(p, "Op"); err != nil {
					return
				}
				_ = m.Exit(p, "Op")
			}
		})
		rt.Join()
		return db.Full(), spec
	}
	trace, spec := mkTrace()

	b.Run("segment-replay", func(b *testing.B) {
		snap := emptyBenchSnapshot(spec)
		for i := 0; i < b.N; i++ {
			lists := benchSeedLists(spec, snap)
			lists.Replay(trace)
			if vs := lists.Violations(); len(vs) != 0 {
				b.Fatalf("violations: %v", vs)
			}
		}
	})
	b.Run("fd-full-trace", func(b *testing.B) {
		cfg := rules.Config{Spec: spec}
		for i := 0; i < b.N; i++ {
			if vs := rules.Check(trace, cfg); len(vs) != 0 {
				b.Fatalf("violations: %v", vs)
			}
		}
	})
}

// BenchmarkVerifyTrace measures offline re-checking of a recorded
// trace with all three rule engines (the cmd/montrace check path).
func BenchmarkVerifyTrace(b *testing.B) {
	spec := managerSpec()
	db := history.New(history.WithFullTrace())
	clk := clock.NewVirtual(time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC))
	m, err := monitor.New(spec, monitor.WithRecorder(db), monitor.WithClock(clk))
	if err != nil {
		b.Fatal(err)
	}
	rt := proc.NewRuntime()
	rt.Spawn("filler", func(p *proc.P) {
		for j := 0; j < 1024; j++ {
			if err := m.Enter(p, "Op"); err != nil {
				return
			}
			_ = m.Exit(p, "Op")
		}
	})
	rt.Join()
	trace := db.Full()
	opts := verify.Options{Specs: []monitor.Spec{spec}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := verify.Trace(trace, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !results[0].Clean() {
			b.Fatalf("clean trace flagged: %+v", results[0])
		}
	}
}

// BenchmarkEffective measures the §3.1 original-event-model
// reconstruction.
func BenchmarkEffective(b *testing.B) {
	// A trace with plenty of blocked entries to reposition.
	var trace event.Seq
	seq := int64(1)
	add := func(typ event.Type, pid int64, cond string, flag int) {
		trace = append(trace, event.Event{
			Seq: seq, Monitor: "m", Type: typ, Pid: pid, Proc: "Op",
			Cond: cond, Flag: flag,
		})
		seq++
	}
	add(event.Enter, 1, "", 1)
	for pid := int64(2); pid <= 64; pid++ {
		add(event.Enter, pid, "", 0)
	}
	for pid := int64(1); pid <= 64; pid++ {
		add(event.SignalExit, pid, "", 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eff := rules.Effective(trace); len(eff) != len(trace) {
			b.Fatalf("effective length %d, want %d", len(eff), len(trace))
		}
	}
}

func emptyBenchSnapshot(spec monitor.Spec) state.Snapshot {
	cq := make(map[string][]state.QueueEntry, len(spec.Conditions))
	for _, c := range spec.Conditions {
		cq[c] = nil
	}
	return state.Snapshot{Monitor: spec.Name, CQ: cq, Resources: spec.Rmax}
}

func benchSeedLists(spec monitor.Spec, snap state.Snapshot) *checklists.Lists {
	return checklists.FromSnapshot(spec, snap, 0, 0)
}
