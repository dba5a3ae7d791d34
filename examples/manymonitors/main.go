// Manymonitors: the sharded hot path at work. Sixteen independent
// monitors record into ONE history database — each monitor gets its
// own shard (own lock, own segment buffer), while an atomic sequence
// counter keeps the global event order for export and offline replay.
// A single detector checkpoints all of them through its parallel
// worker pool, first in the paper-faithful stop-the-world mode, then
// in the per-monitor mode that never stops an unrelated monitor, and
// finally one injected fault shows detection still works at scale.
//
//	go run ./examples/manymonitors
package main

import (
	"fmt"
	"log"
	"time"

	"robustmon"
)

const (
	nMonitors   = 16
	procsPerMon = 4
	pairsPerOp  = 200
)

func buildMonitors(db *robustmon.History, hooks map[int]robustmon.Hooks) []*robustmon.Monitor {
	mons := make([]*robustmon.Monitor, nMonitors)
	for i := range mons {
		spec := robustmon.Spec{
			Name:       fmt.Sprintf("shard%02d", i),
			Kind:       robustmon.OperationManager,
			Conditions: []string{"ok"},
			Procedures: []string{"Op"},
		}
		opts := []robustmon.MonitorOption{robustmon.WithRecorder(db)}
		if h, ok := hooks[i]; ok {
			opts = append(opts, robustmon.WithHooks(h))
		}
		m, err := robustmon.NewMonitor(spec, opts...)
		if err != nil {
			log.Fatalf("manymonitors: %v", err)
		}
		mons[i] = m
	}
	return mons
}

func drive(mons []*robustmon.Monitor) time.Duration {
	rt := robustmon.NewRuntime()
	start := time.Now()
	for _, m := range mons {
		m := m
		for w := 0; w < procsPerMon; w++ {
			rt.Spawn("worker", func(p *robustmon.Process) {
				for j := 0; j < pairsPerOp; j++ {
					if err := m.Enter(p, "Op"); err != nil {
						return
					}
					_ = m.SignalExit(p, "Op", "ok")
				}
			})
		}
	}
	rt.Join()
	return time.Since(start)
}

func run(mode string, newDet func(*robustmon.History, []*robustmon.Monitor) *robustmon.Detector) {
	db := robustmon.NewHistory()
	mons := buildMonitors(db, nil)
	det := newDet(db, mons)
	elapsed := drive(mons)
	vs := det.CheckNow()
	st := det.Stats()
	fmt.Printf("%-22s %d monitors, %d events in %v (%s events/sec), %d checks, %d violations\n",
		mode, len(mons), db.Total(), elapsed.Round(time.Microsecond),
		fmtRate(float64(db.Total())/elapsed.Seconds()), st.Checks, len(vs))
}

func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func main() {
	cfg := robustmon.DetectorConfig{
		Tmax: time.Hour, Tio: time.Hour,
		Workers: 8,
	}

	// Paper-faithful: every checkpoint stops the whole world, but the
	// per-monitor replay work is spread across the worker pool.
	run("hold-world:", func(db *robustmon.History, mons []*robustmon.Monitor) *robustmon.Detector {
		return robustmon.NewDetector(db, cfg, mons...)
	})

	// Per-monitor: each monitor is frozen only for its own snapshot and
	// checkpoint horizon; the other fifteen keep running.
	run("per-monitor:", func(db *robustmon.History, mons []*robustmon.Monitor) *robustmon.Detector {
		return robustmon.NewDetectorNoFreeze(db, cfg, mons...)
	})

	// Detection still works at scale: arm one fault on one of the
	// sixteen monitors and find it. One pass per monitor is enough —
	// the injected "monitor not released" leaves shard07's lock stale,
	// so a longer workload there would just queue up behind it.
	inj := robustmon.NewInjector(robustmon.SignalMonitorNotReleased)
	db := robustmon.NewHistory()
	mons := buildMonitors(db, map[int]robustmon.Hooks{7: inj.Hooks()})
	det := robustmon.NewDetector(db, cfg, mons...)
	inj.Arm()
	rt := robustmon.NewRuntime()
	for _, m := range mons {
		m := m
		rt.Spawn("worker", func(p *robustmon.Process) {
			if err := m.Enter(p, "Op"); err != nil {
				return
			}
			_ = m.SignalExit(p, "Op", "ok")
		})
	}
	rt.Join()
	vs := det.CheckNow()
	fmt.Printf("\ninjected one fault on shard07 among %d monitors: %d violation(s) found\n", nMonitors, len(vs))
	for _, v := range robustmon.DedupViolations(vs) {
		fmt.Printf("  %v\n", v)
	}
}
