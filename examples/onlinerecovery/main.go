// Online recovery: reset a faulty monitor without stopping the world.
//
// Four monitors share one sharded history database and one
// per-monitor-mode detector, checking every 2ms and streaming its
// checkpoints to a WAL export directory. A keep-lock fault wedges one
// monitor mid-run; the recovery manager's ResetMonitor policy — wired
// shard-local via SetResetter — freezes only that monitor, discards
// its unchecked history, reinitialises it and lets its workload
// resume, while the other three monitors never stop. The exported WAL
// carries a recovery marker recording the reset horizon, which the
// replay at the end reads back.
//
//	go run ./examples/onlinerecovery
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"robustmon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "onlinerecovery:", err)
		os.Exit(1)
	}
}

func run() error {
	db := robustmon.NewHistory()

	// The faulty monitor gets a keep-lock injector: one Exit will keep
	// the monitor occupied, wedging every later Enter behind a stale
	// occupant — fault I.c.2 of the taxonomy.
	inj := robustmon.NewInjector(robustmon.SignalMonitorNotReleased)
	spec := func(name string) robustmon.Spec {
		return robustmon.Spec{
			Name:       name,
			Kind:       robustmon.OperationManager,
			Conditions: []string{"ok"},
			Procedures: []string{"Op"},
		}
	}
	faulty, err := robustmon.NewMonitor(spec("faulty"),
		robustmon.WithRecorder(db), robustmon.WithHooks(inj.Hooks()))
	if err != nil {
		return err
	}
	mons := []*robustmon.Monitor{faulty}
	for i := 0; i < 3; i++ {
		m, err := robustmon.NewMonitor(spec(fmt.Sprintf("steady%d", i)), robustmon.WithRecorder(db))
		if err != nil {
			return err
		}
		mons = append(mons, m)
	}

	// Checkpoints stream to a WAL directory so the recovery marker has
	// somewhere durable to land.
	dir := filepath.Join(os.TempDir(), fmt.Sprintf("onlinerecovery-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	sink, err := robustmon.NewWALSink(dir, robustmon.WALConfig{})
	if err != nil {
		return err
	}
	exp := robustmon.NewExporter(sink, robustmon.ExporterConfig{Policy: robustmon.ExportBlock})

	rt := robustmon.NewRuntime()
	mgr := robustmon.NewRecoveryManager(robustmon.ResetMonitor, rt, faulty)
	det := robustmon.NewDetectorNoFreeze(db, robustmon.DetectorConfig{
		Interval:    2 * time.Millisecond,
		BatchSize:   64,
		Exporter:    exp,
		OnViolation: mgr.Handle,
	}, mons...)
	mgr.SetResetter(det) // this line is what makes the reset shard-local

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan []robustmon.Violation, 1)
	go func() { runDone <- det.Run(ctx) }()

	// Steady monitors: one driver each, hammering enter/exit.
	stop := make(chan struct{})
	for _, m := range mons[1:] {
		m := m
		rt.Spawn(m.Name(), func(p *robustmon.Process) {
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Enter(p, "Op"); err != nil {
					return
				}
				_ = m.Exit(p, "Op")
			}
		})
	}
	// The faulty driver: clean ops, then the armed fault wedges the
	// monitor. Recovery resets it online; the driver's parked Enter is
	// aborted and it retries into the freshly reset monitor.
	recoveredOps := make(chan int, 1)
	rt.Spawn("faulty", func(p *robustmon.Process) {
		for i := 0; i < 20; i++ {
			if err := faulty.Enter(p, "Op"); err != nil {
				return
			}
			_ = faulty.Exit(p, "Op")
		}
		inj.Arm()
		if err := faulty.Enter(p, "Op"); err != nil {
			return
		}
		_ = faulty.Exit(p, "Op") // keeps the lock: the monitor is now wedged
		ops := 0
		for i := 0; i < 20; i++ {
			// The first of these parks behind the stale occupant until the
			// online reset aborts it; retries then run against the
			// recovered monitor.
			if err := faulty.Enter(p, "Op"); err != nil {
				continue
			}
			_ = faulty.Exit(p, "Op")
			ops++
		}
		recoveredOps <- ops
	})

	ops := <-recoveredOps
	close(stop)
	cancel()
	<-runDone
	if err := exp.Close(); err != nil {
		return err
	}
	rt.AbortAll()
	rt.Join()

	st := det.Stats()
	fmt.Printf("checkpoints: %d   resets: %d (discarded %d unchecked events)\n",
		st.Checks, st.Resets, st.ResetDropped)
	fmt.Printf("faulty monitor served %d/20 ops after the wedge (recovered online)\n", ops)
	fmt.Println("\nrecovery actions:")
	if err := robustmon.RenderRecoveryActions(os.Stdout, mgr.Log()); err != nil {
		return err
	}

	rep, err := robustmon.ReadExportDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("\nexported %d events in %d segments; %d recovery marker(s):\n",
		len(rep.Events), rep.Segments, len(rep.Markers))
	for _, mk := range rep.Markers {
		fmt.Printf("  monitor %q reset at seq %d (rule %s, %d events discarded)\n",
			mk.Monitor, mk.Horizon, mk.Rule, mk.Dropped)
	}
	if st.Resets == 0 || ops == 0 || len(rep.Markers) == 0 {
		return fmt.Errorf("recovery did not engage (resets=%d ops=%d markers=%d)",
			st.Resets, ops, len(rep.Markers))
	}
	fmt.Println("\nthe three steady monitors were never frozen by the reset: no world stop")
	return nil
}
