package detect_test

import (
	"context"
	"testing"
	"time"

	"robustmon/internal/detect"
	"robustmon/internal/export"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
)

// TestDetectorFeedsExporter wires an exporter through Config.Exporter
// and checks the integration contract: New installs the drain tee, the
// checkpoints stream every drained segment out, and Run's shutdown
// flush leaves the sink holding the complete run — all without
// WithFullTrace. (External test package: detect itself must not depend
// on export; the TraceExporter seam is the point.)
func TestDetectorFeedsExporter(t *testing.T) {
	t.Parallel()
	for _, hold := range []bool{true, false} {
		hold := hold
		name := "per-monitor"
		if hold {
			name = "hold-world"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sink := &export.MemorySink{}
			exp := export.New(sink, export.Config{Policy: export.Block})
			db := history.New() // deliberately no WithFullTrace
			mons := make([]*monitor.Monitor, 3)
			for i := range mons {
				spec := monitor.Spec{
					Name:       "m" + string(rune('0'+i)),
					Kind:       monitor.OperationManager,
					Conditions: []string{"ok"},
					Procedures: []string{"Op"},
				}
				m, err := monitor.New(spec, monitor.WithRecorder(db))
				if err != nil {
					t.Fatal(err)
				}
				mons[i] = m
			}
			det := detect.New(db, detect.Config{
				Interval:  time.Millisecond,
				Tmax:      time.Hour,
				Tio:       time.Hour,
				HoldWorld: hold,
				Exporter:  exp,
			}, mons...)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				if vs := det.Run(ctx); len(vs) != 0 {
					t.Errorf("fault-free run reported violations: %v", vs)
				}
			}()
			rt := proc.NewRuntime()
			for _, m := range mons {
				m := m
				rt.Spawn("w", func(p *proc.P) {
					for j := 0; j < 300; j++ {
						if err := m.Enter(p, "Op"); err != nil {
							return
						}
						_ = m.Exit(p, "Op")
					}
				})
			}
			rt.Join()
			cancel()
			<-done // Run has flushed the exporter on its way out

			events := sink.Events()
			if got, want := int64(len(events)), db.Total(); got != want {
				t.Fatalf("exporter saw %d events, database recorded %d", got, want)
			}
			if err := events.Validate(); err != nil {
				t.Fatalf("exported trace invalid: %v", err)
			}
			if db.Full() != nil {
				t.Fatal("db.Full() non-nil without WithFullTrace — exporter should be the only copy")
			}
		})
	}
}
