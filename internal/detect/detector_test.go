package detect

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

var epoch = time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)

func managerSpec() monitor.Spec {
	return monitor.Spec{
		Name: "m", Kind: monitor.OperationManager,
		Conditions: []string{"ok"},
	}
}

func coordSpec() monitor.Spec {
	return monitor.Spec{
		Name: "buf", Kind: monitor.CommunicationCoordinator,
		Conditions:  []string{"notFull", "notEmpty"},
		Rmax:        2,
		SendProc:    "Send",
		ReceiveProc: "Receive",
	}
}

type fixture struct {
	db  *history.DB
	mon *monitor.Monitor
	det *Detector
	rt  *proc.Runtime
	clk *clock.Virtual
}

func newFixture(t *testing.T, spec monitor.Spec, hooks monitor.Hooks, cfg Config) *fixture {
	t.Helper()
	db := history.New(history.WithFullTrace())
	clk := clock.NewVirtual(epoch)
	m, err := monitor.New(spec,
		monitor.WithRecorder(db),
		monitor.WithClock(clk),
		monitor.WithHooks(hooks),
	)
	if err != nil {
		t.Fatalf("monitor.New: %v", err)
	}
	cfg.Clock = clk
	cfg.HoldWorld = true
	det := New(db, cfg, m)
	return &fixture{db: db, mon: m, det: det, rt: proc.NewRuntime(), clk: clk}
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestCleanWorkloadNoViolations(t *testing.T) {
	t.Parallel()
	f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{
		Tmax: time.Minute, Tio: time.Minute,
	})
	// A condition-variable ping-pong plus plain critical sections.
	var wg sync.WaitGroup
	wg.Add(1)
	f.rt.Spawn("waiter", func(p *proc.P) {
		defer wg.Done()
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		if err := f.mon.Wait(p, "Op", "ok"); err != nil {
			return
		}
		_ = f.mon.Exit(p, "Op")
	})
	waitFor(t, "waiter queued", func() bool { return f.mon.CondLen("ok") == 1 })
	for i := 0; i < 4; i++ {
		f.rt.Spawn("worker", func(p *proc.P) {
			if err := f.mon.Enter(p, "Op"); err != nil {
				return
			}
			_ = f.mon.SignalExit(p, "Op", "ok")
		})
	}
	f.rt.Join()
	wg.Wait()
	if vs := f.det.CheckNow(); len(vs) != 0 {
		t.Fatalf("clean workload produced violations: %v", vs)
	}
	// Second checkpoint over an empty segment must also be silent.
	if vs := f.det.CheckNow(); len(vs) != 0 {
		t.Fatalf("empty segment produced violations: %v", vs)
	}
}

func TestCleanCoordinatorWorkload(t *testing.T) {
	t.Parallel()
	f := newFixture(t, coordSpec(), monitor.Hooks{}, Config{
		Tmax: time.Minute, Tio: time.Minute,
	})
	var mu sync.Mutex
	buf := 0
	send := func(p *proc.P) {
		if err := f.mon.Enter(p, "Send"); err != nil {
			return
		}
		mu.Lock()
		full := buf == 2
		mu.Unlock()
		if full {
			if err := f.mon.Wait(p, "Send", "notFull"); err != nil {
				return
			}
		}
		mu.Lock()
		buf++
		mu.Unlock()
		_ = f.mon.SignalExit(p, "Send", "notEmpty")
	}
	recv := func(p *proc.P) {
		if err := f.mon.Enter(p, "Receive"); err != nil {
			return
		}
		mu.Lock()
		empty := buf == 0
		mu.Unlock()
		if empty {
			if err := f.mon.Wait(p, "Receive", "notEmpty"); err != nil {
				return
			}
		}
		mu.Lock()
		buf--
		mu.Unlock()
		_ = f.mon.SignalExit(p, "Receive", "notFull")
	}
	// Strictly alternating send/recv pairs keep the schedule simple and
	// exercise both procedures without racing the shared buf counter.
	for i := 0; i < 6; i++ {
		f.rt.Spawn("producer", send)
		f.rt.Join()
		f.rt.Spawn("consumer", recv)
		f.rt.Join()
		if vs := f.det.CheckNow(); len(vs) != 0 {
			t.Fatalf("round %d: clean coordinator produced violations: %v", i, vs)
		}
	}
}

func TestDetectsEnterMutexViolation(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.EnterMutexViolation)
	f := newFixture(t, managerSpec(), inj.Hooks(), Config{})
	inj.Arm()

	hold := make(chan struct{})
	f.rt.Spawn("holder", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = f.mon.Exit(p, "Op")
	})
	waitFor(t, "holder inside", func() bool { return f.mon.InsideCount() == 1 })
	f.rt.Spawn("intruder", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		_ = f.mon.Exit(p, "Op")
	})
	waitFor(t, "injection fired", func() bool { return inj.Fired() > 0 })
	waitFor(t, "intruder gone", func() bool { return f.mon.InsideCount() == 1 })
	close(hold)
	f.rt.Join()

	vs := f.det.CheckNow()
	if !rules.HasRule(vs, rules.ST3c) {
		t.Fatalf("violations = %v, want ST-3c", vs)
	}
	if !rules.HasFault(vs, faults.EnterMutexViolation) {
		t.Fatalf("violations = %v, want EnterMutexViolation classification", vs)
	}
}

func TestDetectsEnterLostProcess(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.EnterLostProcess)
	f := newFixture(t, managerSpec(), inj.Hooks(), Config{Tio: time.Minute})

	hold := make(chan struct{})
	f.rt.Spawn("holder", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = f.mon.Exit(p, "Op")
	})
	waitFor(t, "holder inside", func() bool { return f.mon.InsideCount() == 1 })
	inj.Arm()
	victim := f.rt.Spawn("victim", func(p *proc.P) {
		_ = f.mon.Enter(p, "Op")
	})
	waitFor(t, "victim parked", func() bool { return victim.Status() == proc.Parked })
	close(hold)
	waitFor(t, "monitor free", func() bool { return f.mon.InsideCount() == 0 })

	vs := f.det.CheckNow()
	// The reconstruction believes the victim was handed the monitor at
	// the holder's exit; in reality it vanished. Depending on whether a
	// handoff happened before the checkpoint, the divergence surfaces on
	// Enter-0-List (ST-1) or on Running-List (ST-R).
	if !rules.HasRule(vs, rules.ST1) && !rules.HasRule(vs, rules.STrn) {
		t.Fatalf("violations = %v, want ST-1 or ST-R for the lost process", vs)
	}
	f.rt.AbortAll()
	f.rt.Join()
}

func TestDetectsEnterNoResponseViaTio(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.EnterNoResponse)
	f := newFixture(t, managerSpec(), inj.Hooks(), Config{Tio: 10 * time.Second})
	inj.Arm()
	victim := f.rt.Spawn("victim", func(p *proc.P) {
		_ = f.mon.Enter(p, "Op") // blocked although the monitor is free
	})
	waitFor(t, "victim parked", func() bool { return victim.Status() == proc.Parked })

	// The blocked-on-free-monitor event violates ST-3d immediately.
	vs := f.det.CheckNow()
	if !rules.HasRule(vs, rules.ST3d) {
		t.Fatalf("violations = %v, want ST-3d", vs)
	}
	// And once Tio elapses, the starvation timer fires too: the victim
	// is on both the actual and the reconstructed entry queue.
	f.clk.Advance(time.Minute)
	vs = f.det.CheckNow()
	if !rules.HasRule(vs, rules.ST6) || !rules.HasFault(vs, faults.EnterNoResponse) {
		t.Fatalf("violations = %v, want ST-6/EnterNoResponse", vs)
	}
	f.rt.AbortAll()
	f.rt.Join()
}

func TestDetectsWaitLostProcess(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.WaitLostProcess)
	f := newFixture(t, managerSpec(), inj.Hooks(), Config{})
	inj.Arm()
	victim := f.rt.Spawn("victim", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		_ = f.mon.Wait(p, "Op", "ok")
	})
	waitFor(t, "victim parked", func() bool { return victim.Status() == proc.Parked })
	vs := f.det.CheckNow()
	if !rules.HasRule(vs, rules.ST2) {
		t.Fatalf("violations = %v, want ST-2", vs)
	}
	f.rt.AbortAll()
	f.rt.Join()
}

func TestDetectsInternalTerminationViaTmax(t *testing.T) {
	t.Parallel()
	f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{Tmax: 10 * time.Second})
	f.rt.Spawn("dier", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		// Terminates inside the monitor: fault I.d.
	})
	f.rt.Join()
	// Within Tmax: no violation yet.
	if vs := f.det.CheckNow(); len(vs) != 0 {
		t.Fatalf("premature violations: %v", vs)
	}
	f.clk.Advance(time.Minute)
	vs := f.det.CheckNow()
	if !rules.HasRule(vs, rules.ST5) || !rules.HasFault(vs, faults.InternalTermination) {
		t.Fatalf("violations = %v, want ST-5/InternalTermination", vs)
	}
}

func TestDetectsEntryStarvationViaTio(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.WaitEntryStarved, faults.FireEveryTime())
	f := newFixture(t, managerSpec(), inj.Hooks(), Config{Tio: 10 * time.Second})
	inj.Arm()
	inj.SetVictim(2)

	hold := make(chan struct{})
	f.rt.Spawn("holder", func(p *proc.P) { // pid 1
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = f.mon.Exit(p, "Op")
	})
	waitFor(t, "holder inside", func() bool { return f.mon.InsideCount() == 1 })
	victim := f.rt.Spawn("victim", func(p *proc.P) { // pid 2
		_ = f.mon.Enter(p, "Op")
	})
	waitFor(t, "victim queued", func() bool { return f.mon.EntryLen() == 1 })
	close(hold)
	waitFor(t, "monitor free, victim skipped", func() bool { return f.mon.InsideCount() == 0 })
	_ = victim

	vs := f.det.CheckNow()
	// The reconstruction hands the monitor to the skipped victim, so the
	// starvation shows up as an Enter-0-List / Running-List divergence.
	if !rules.HasRule(vs, rules.ST1) && !rules.HasRule(vs, rules.STrn) {
		t.Fatalf("violations = %v, want ST-1 or ST-R for the starved victim", vs)
	}
	f.rt.AbortAll()
	f.rt.Join()
}

func TestDetectsSignalMonitorNotReleased(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.SignalMonitorNotReleased)
	f := newFixture(t, managerSpec(), inj.Hooks(), Config{})
	inj.Arm()
	f.rt.Spawn("p", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		_ = f.mon.Exit(p, "Op")
	})
	f.rt.Join()
	vs := f.det.CheckNow()
	if !rules.HasRule(vs, rules.STrn) || !rules.HasFault(vs, faults.SignalMonitorNotReleased) {
		t.Fatalf("violations = %v, want ST-R/SignalMonitorNotReleased", vs)
	}
}

func TestDetectsBareEntry(t *testing.T) {
	t.Parallel()
	f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{})
	f.rt.Spawn("ghost", func(p *proc.P) {
		f.mon.InjectBareEntry(p, "Op")
		_ = f.mon.Exit(p, "Op")
	})
	f.rt.Join()
	vs := f.det.CheckNow()
	if !rules.HasRule(vs, rules.ST3b) || !rules.HasFault(vs, faults.EnterNotObserved) {
		t.Fatalf("violations = %v, want ST-3b/EnterNotObserved", vs)
	}
}

func TestCheckpointCarriesStateAcrossSegments(t *testing.T) {
	t.Parallel()
	f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{})
	// Segment 1: P1 enters and stays inside across the checkpoint.
	hold := make(chan struct{})
	f.rt.Spawn("p1", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		<-hold
		_ = f.mon.Exit(p, "Op")
	})
	waitFor(t, "p1 inside", func() bool { return f.mon.InsideCount() == 1 })
	if vs := f.det.CheckNow(); len(vs) != 0 {
		t.Fatalf("segment 1 violations: %v", vs)
	}
	// Segment 2: P1 exits; the seeded Running-List must explain it.
	close(hold)
	f.rt.Join()
	if vs := f.det.CheckNow(); len(vs) != 0 {
		t.Fatalf("segment 2 violations: %v", vs)
	}
}

func TestRunLoopPeriodicChecks(t *testing.T) {
	t.Parallel()
	f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{Interval: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []rules.Violation, 1)
	go func() { done <- f.det.Run(ctx) }()

	// Three virtual seconds → three periodic checks. Each Advance must
	// wait until the loop has re-armed its timer.
	for i := 1; i <= 3; i++ {
		waitFor(t, "timer armed", func() bool { return f.clk.Pending() > 0 })
		f.clk.Advance(time.Second)
		want := i
		waitFor(t, "check completed", func() bool { return f.det.Stats().Checks >= want })
	}
	cancel()
	vs := <-done
	if len(vs) != 0 {
		t.Fatalf("idle run produced violations: %v", vs)
	}
	if got := f.det.Stats().Checks; got < 4 {
		t.Fatalf("Checks = %d, want ≥ 4 (3 periodic + 1 final)", got)
	}
}

// TestRunReturnsEveryViolation: Run returns every violation found
// while it ran, as Violations does, with or without a periodic
// Interval. The rule fires at the final checkpoint's health
// evaluation; its meta-violation is never part of CheckNow's result,
// so Run has to report the accumulated set.
func TestRunReturnsEveryViolation(t *testing.T) {
	t.Parallel()
	for _, iv := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("interval=%v", iv), func(t *testing.T) {
			t.Parallel()
			f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{
				Interval: iv,
				Obs:      obs.NewRegistry(), HealthEvery: time.Minute, Exporter: &alertCapture{},
				Rules: []obsrules.Rule{{
					Name: "any-check", Metric: "detect_checks_total", Ceiling: 0, FireAfter: 1,
				}},
			})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			got := f.det.Run(ctx)
			want := f.det.Violations()
			if len(want) != 1 || want[0].Rule != rules.Meta {
				t.Fatalf("Violations() = %v, want the one meta-violation", want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Run returned %v, want every violation found: %v", got, want)
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	t.Parallel()
	f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{})
	f.rt.Spawn("p", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		_ = f.mon.Exit(p, "Op")
	})
	f.rt.Join()
	f.det.CheckNow()
	st := f.det.Stats()
	if st.Checks != 1 || st.Events != 2 || st.Violations != 0 {
		t.Fatalf("Stats = %+v, want 1 check / 2 events / 0 violations", st)
	}
}

func TestOnViolationCallback(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var seen []rules.Violation
	inj := faults.NewInjector(faults.SignalMonitorNotReleased)
	db := history.New()
	clk := clock.NewVirtual(epoch)
	m, err := monitor.New(managerSpec(),
		monitor.WithRecorder(db), monitor.WithClock(clk), monitor.WithHooks(inj.Hooks()))
	if err != nil {
		t.Fatal(err)
	}
	det := New(db, Config{
		Clock:     clk,
		HoldWorld: true,
		OnViolation: func(v rules.Violation) {
			mu.Lock()
			seen = append(seen, v)
			mu.Unlock()
		},
	}, m)
	inj.Arm()
	rt := proc.NewRuntime()
	rt.Spawn("p", func(p *proc.P) {
		if err := m.Enter(p, "Op"); err != nil {
			return
		}
		_ = m.Exit(p, "Op")
	})
	rt.Join()
	det.CheckNow()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("OnViolation never called")
	}
	if seen[0].Phase != "periodic" {
		t.Fatalf("violation phase = %q, want periodic", seen[0].Phase)
	}
}

func TestCheckpointStatesRecordedInDatabase(t *testing.T) {
	t.Parallel()
	f := newFixture(t, managerSpec(), monitor.Hooks{}, Config{})
	f.rt.Spawn("p", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		_ = f.mon.Exit(p, "Op")
	})
	f.rt.Join()
	f.det.CheckNow()
	f.det.CheckNow()
	states := f.db.States()
	if len(states) != 2 {
		t.Fatalf("database recorded %d checkpoint states, want 2", len(states))
	}
	if states[0].Monitor != "m" || states[0].LastSeq != 2 {
		t.Fatalf("first state = %+v, want monitor m at LastSeq 2", states[0])
	}
	if last, ok := f.db.LastState("m"); !ok || last.LastSeq != 2 {
		t.Fatalf("LastState = %+v,%v", last, ok)
	}
}

func TestNoFreezeConfigurationStillSound(t *testing.T) {
	t.Parallel()
	// The ablation configuration (HoldWorld=false) thaws monitors before
	// replaying; it must remain free of false positives under load.
	db := history.New()
	m, err := monitor.New(managerSpec(), monitor.WithRecorder(db))
	if err != nil {
		t.Fatal(err)
	}
	det := New(db, Config{
		Tmax: time.Minute, Tio: time.Minute,
		Clock: clock.Real{}, HoldWorld: false,
	}, m)
	rt := proc.NewRuntime()
	for i := 0; i < 4; i++ {
		rt.Spawn("w", func(p *proc.P) {
			for j := 0; j < 100; j++ {
				if err := m.Enter(p, "Op"); err != nil {
					return
				}
				_ = m.Exit(p, "Op")
			}
		})
	}
	stop := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			select {
			case <-stop:
				return
			default:
				if vs := det.CheckNow(); len(vs) != 0 {
					t.Errorf("no-freeze config produced violations: %v", vs)
					return
				}
			}
		}
	}()
	rt.Join()
	close(stop)
	<-checked
	if vs := det.CheckNow(); len(vs) != 0 {
		t.Fatalf("final check: %v", vs)
	}
}

func TestViolationsAccumulate(t *testing.T) {
	t.Parallel()
	inj := faults.NewInjector(faults.SignalMonitorNotReleased)
	f := newFixture(t, managerSpec(), inj.Hooks(), Config{})
	inj.Arm()
	f.rt.Spawn("p", func(p *proc.P) {
		if err := f.mon.Enter(p, "Op"); err != nil {
			return
		}
		_ = f.mon.Exit(p, "Op")
	})
	f.rt.Join()
	f.det.CheckNow()
	if len(f.det.Violations()) == 0 {
		t.Fatal("Violations() empty after detection")
	}
}
