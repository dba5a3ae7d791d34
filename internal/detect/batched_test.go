package detect

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// violKey projects a violation onto its detection-relevant identity:
// what was found, where, on whom. Timestamps and message text vary
// with checkpoint instants and are excluded on purpose.
type violKey struct {
	rule  rules.ID
	mon   string
	pid   int64
	fault faults.Kind
	seq   int64
}

func violMultiset(vs []rules.Violation) map[violKey]int {
	out := make(map[violKey]int, len(vs))
	for _, v := range vs {
		out[violKey{v.Rule, v.Monitor, v.Pid, v.Fault, v.Seq}]++
	}
	return out
}

// runDeterministicFaulty executes the reference faulty workload — four
// monitors, one process each run strictly in sequence, the
// SignalMonitorNotReleased injector armed on the even monitors — under
// the given detector configuration, checkpointing after every
// monitor's workload via check, and returns every violation found.
func runDeterministicFaulty(t *testing.T, cfg Config, check func(d *Detector, name string)) []rules.Violation {
	t.Helper()
	db := history.New()
	clk := clock.NewVirtual(epoch)
	cfg.Clock = clk
	const nMons = 4
	mons := make([]*monitor.Monitor, nMons)
	injs := make([]*faults.Injector, nMons)
	for i := range mons {
		injs[i] = faults.NewInjector(faults.SignalMonitorNotReleased)
		m, err := monitor.New(monitor.Spec{
			Name:       fmt.Sprintf("mon%02d", i),
			Kind:       monitor.OperationManager,
			Conditions: []string{"ok"},
			Procedures: []string{"Op"},
		}, monitor.WithRecorder(db), monitor.WithClock(clk), monitor.WithHooks(injs[i].Hooks()))
		if err != nil {
			t.Fatal(err)
		}
		mons[i] = m
	}
	det := New(db, cfg, mons...)
	rt := proc.NewRuntime()
	pair := func(m *monitor.Monitor, n int) {
		rt.Spawn("p", func(p *proc.P) {
			for j := 0; j < n; j++ {
				if err := m.Enter(p, "Op"); err != nil {
					return
				}
				_ = m.Exit(p, "Op")
			}
		})
		rt.Join()
	}
	for i, m := range mons {
		// Eight clean pairs build a multi-batch segment; the injector is
		// armed only for the final pair, so the kept lock cannot
		// deadlock a subsequent Enter.
		pair(m, 8)
		if i%2 == 0 {
			injs[i].Arm()
		}
		pair(m, 1)
		if check != nil {
			check(det, m.Name())
		}
	}
	det.CheckNow()
	return det.Violations()
}

// TestBatchedEquivalence is the acceptance pin for batched replay: the
// batched, parallel detector must report the identical violation set
// as the serial single-drain path over the same recorded trace, for
// every batch size and both checkpoint modes.
func TestBatchedEquivalence(t *testing.T) {
	t.Parallel()
	// Baseline: the paper-faithful serial path — hold-world, one drain
	// per monitor, one worker, whole-world checkpoints.
	checkpoint := func(d *Detector, _ string) { d.CheckNow() }
	baseline := runDeterministicFaulty(t, Config{HoldWorld: true, Workers: 1}, checkpoint)
	if len(baseline) == 0 {
		t.Fatal("faulty corpus produced no violations")
	}
	want := violMultiset(baseline)

	cases := []struct {
		name string
		cfg  Config
	}{
		{"batch1-holdworld", Config{HoldWorld: true, Workers: 1, BatchSize: 1}},
		{"batch7-holdworld-parallel", Config{HoldWorld: true, Workers: 4, BatchSize: 7}},
		{"batch3-permonitor-parallel", Config{HoldWorld: false, Workers: 2, BatchSize: 3}},
		{"hugebatch-permonitor", Config{HoldWorld: false, Workers: 3, BatchSize: 1 << 20}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// The variant checkpoints at the same workload positions.
			got := runDeterministicFaulty(t, c.cfg, checkpoint)
			gotSet := violMultiset(got)
			if len(gotSet) != len(want) {
				t.Fatalf("variant found %d distinct violations, baseline %d\nvariant: %v\nbaseline: %v",
					len(gotSet), len(want), got, baseline)
			}
			for k, n := range want {
				if gotSet[k] != n {
					t.Fatalf("violation %+v: baseline ×%d, variant ×%d", k, n, gotSet[k])
				}
			}
		})
	}
}

// collectExporter implements TraceExporter, collecting every teed
// segment for offline merging (markers and health are irrelevant to
// these tests, so those record kinds are explicit no-ops).
type collectExporter struct {
	mu   sync.Mutex
	segs []event.Seq
}

func (c *collectExporter) Consume(monitor string, seg event.Seq) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.segs = append(c.segs, seg)
}

func (c *collectExporter) ConsumeMarker(history.RecoveryMarker) {}
func (c *collectExporter) ConsumeHealth(obs.HealthRecord)       {}
func (c *collectExporter) ConsumeAlert(obsrules.Alert)          {}
func (c *collectExporter) Flush() error                         { return nil }

func (c *collectExporter) merged() event.Seq {
	c.mu.Lock()
	defer c.mu.Unlock()
	return event.Merge(c.segs...)
}

// TestBatchedReplayByteIdenticalExport runs the same deterministic
// workload under BatchSize ∈ {unbatched, 1, 7, exactly-segment-sized,
// huge} and requires the exported trace to be byte-identical across
// all of them: batching may change WAL record framing, but never which
// events are exported nor their global order.
func TestBatchedReplayByteIdenticalExport(t *testing.T) {
	t.Parallel()
	const pairs = 14 // 28 events per monitor: exercises partial final batches
	run := func(batch int) []byte {
		db := history.New()
		clk := clock.NewVirtual(epoch)
		exp := &collectExporter{}
		mons := make([]*monitor.Monitor, 3)
		for i := range mons {
			m, err := monitor.New(monitor.Spec{
				Name:       fmt.Sprintf("m%d", i),
				Kind:       monitor.OperationManager,
				Conditions: []string{"ok"},
				Procedures: []string{"Op"},
			}, monitor.WithRecorder(db), monitor.WithClock(clk))
			if err != nil {
				t.Fatal(err)
			}
			mons[i] = m
		}
		det := New(db, Config{
			Clock: clk, HoldWorld: batch%2 == 0, Workers: 2,
			BatchSize: batch, Exporter: exp,
		}, mons...)
		rt := proc.NewRuntime()
		for _, m := range mons {
			m := m
			rt.Spawn("p", func(p *proc.P) {
				for j := 0; j < pairs; j++ {
					if err := m.Enter(p, "Op"); err != nil {
						return
					}
					_ = m.Exit(p, "Op")
				}
			})
			rt.Join()
			det.CheckNow() // mid-run checkpoint: several segments per run
		}
		det.CheckNow()
		var buf bytes.Buffer
		if err := event.WriteBinary(&buf, exp.merged()); err != nil {
			t.Fatal(err)
		}
		if n := len(exp.merged()); n != 3*pairs*2 {
			t.Fatalf("batch %d exported %d events, want %d", batch, n, 3*pairs*2)
		}
		return buf.Bytes()
	}

	baseline := run(0)
	for _, batch := range []int{1, 7, pairs * 2, 1 << 20} {
		if got := run(batch); !bytes.Equal(got, baseline) {
			t.Fatalf("BatchSize=%d export differs from unbatched export (%d vs %d bytes)",
				batch, len(got), len(baseline))
		}
	}
}

// TestBatchedCheckpointCleanUnderLoad is the batched twin of
// TestParallelCheckpointCleanUnderLoad: concurrent load in both
// checkpoint modes with a small batch size must replay everything
// exactly once.
func TestBatchedCheckpointCleanUnderLoad(t *testing.T) {
	t.Parallel()
	for _, hold := range []bool{true, false} {
		hold := hold
		name := "hold-world"
		if !hold {
			name = "per-monitor"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			db := history.New()
			mons := newManyMonitors(t, db, 6)
			det := New(db, Config{
				Tmax: time.Minute, Tio: time.Minute,
				Clock: clock.Real{}, HoldWorld: hold, Workers: 4, BatchSize: 8,
			}, mons...)
			rt := proc.NewRuntime()
			done := make(chan struct{})
			go func() {
				defer close(done)
				hammer(rt, mons, 3, 50)
			}()
			for {
				select {
				case <-done:
					if vs := det.CheckNow(); len(vs) != 0 {
						t.Fatalf("final check: %v", vs)
					}
					if st := det.Stats(); st.Events != int(db.Total()) {
						t.Fatalf("replayed %d events, recorded %d — events lost or duplicated",
							st.Events, db.Total())
					}
					return
				default:
					if vs := det.CheckNow(); len(vs) != 0 {
						t.Fatalf("checkpoint under load: %v", vs)
					}
				}
			}
		})
	}
}
