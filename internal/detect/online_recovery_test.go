package detect

// The acceptance test for shard-local online recovery: inject faults
// into k of n monitors under the per-monitor batched checkpoint mode
// with Policy=ResetMonitor, and require
//
//	(a) no world stop — checkpoints keep completing after the resets
//	    were applied, observed via Stats, and every untouched monitor's
//	    driver runs its whole workload without ever being stalled or
//	    aborted;
//	(b) the untouched monitors' violation sets and their exported
//	    per-monitor event streams are identical to a no-recovery
//	    baseline run of the same workload.
//
// Per-monitor streams are compared with the global sequence numbers
// normalised out: the workload is concurrent, so how the monitors'
// appends interleave in the global sequence varies run to run by
// design — what must not vary is which events each untouched monitor
// recorded, in which per-monitor order, with which payloads. Each
// monitor's drivers are deterministic and the monitors share a virtual
// clock that never advances, so after zeroing Seq the re-encoded
// per-monitor streams must match byte for byte.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/recovery"
	"robustmon/internal/rules"
)

// The workload: two monitors wedged by a keep-lock fault (reset by
// recovery when enabled), one with a benign deterministic
// wait-no-block fault (never covered by recovery — its violations must
// come out identical in both runs), and two clean ones.
var (
	faultyMons    = []string{"faulty0", "faulty1"}
	untouchedMons = []string{"benign", "good0", "good1"}
)

// recoveryRunResult carries everything the equivalence comparison
// needs out of one run.
type recoveryRunResult struct {
	stats      Stats
	violations []rules.Violation
	actions    []recovery.Action
	replay     *export.Replay
}

// runOnlineRecoveryWorkload executes the workload once, with or
// without the recovery manager wired in, exporting to a WAL directory.
func runOnlineRecoveryWorkload(t *testing.T, withRecovery bool) recoveryRunResult {
	t.Helper()
	db := history.New()
	monClk := clock.NewVirtual(epoch) // never advanced: deterministic event times

	injectors := map[string]*faults.Injector{
		"faulty0": faults.NewInjector(faults.SignalMonitorNotReleased),
		"faulty1": faults.NewInjector(faults.SignalMonitorNotReleased),
		"benign":  faults.NewInjector(faults.WaitNoBlock),
	}
	names := append(append([]string(nil), faultyMons...), untouchedMons...)
	sort.Strings(names)
	mons := make(map[string]*monitor.Monitor, len(names))
	ordered := make([]*monitor.Monitor, 0, len(names))
	for _, name := range names {
		opts := []monitor.Option{monitor.WithRecorder(db), monitor.WithClock(monClk)}
		if inj := injectors[name]; inj != nil {
			opts = append(opts, monitor.WithHooks(inj.Hooks()))
		}
		m, err := monitor.New(monitor.Spec{
			Name:       name,
			Kind:       monitor.OperationManager,
			Conditions: []string{"ok"},
			Procedures: []string{"Op"},
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		mons[name] = m
		ordered = append(ordered, m)
	}

	sink, err := export.NewWALSink(filepath.Join(t.TempDir(), "wal"), export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exp := export.New(sink, export.Config{Policy: export.Block})

	rt := proc.NewRuntime()
	var mgr *recovery.Manager
	cfg := Config{
		Clock:     clock.Real{},
		HoldWorld: false, // per-monitor mode: the whole point
		Workers:   4,
		Interval:  2 * time.Millisecond,
		BatchSize: 8,
		Exporter:  exp,
	}
	if withRecovery {
		mgr = recovery.NewManager(recovery.ResetMonitor, rt,
			mons["faulty0"], mons["faulty1"]) // k of n: benign stays uncovered
		cfg.OnViolation = mgr.Handle
	}
	det := New(db, cfg, ordered...)
	if withRecovery {
		mgr.SetResetter(det)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan []rules.Violation, 1)
	go func() { runDone <- det.Run(ctx) }()

	const goodPairs = 400
	var untouchedDone []chan struct{}
	pair := func(m *monitor.Monitor, p *proc.P) error {
		if err := m.Enter(p, "Op"); err != nil {
			return err
		}
		return m.Exit(p, "Op")
	}
	for _, name := range []string{"good0", "good1"} {
		m := mons[name]
		done := make(chan struct{})
		untouchedDone = append(untouchedDone, done)
		rt.Spawn(name, func(p *proc.P) {
			defer close(done)
			for j := 0; j < goodPairs; j++ {
				if err := pair(m, p); err != nil {
					t.Errorf("untouched %s driver stalled/aborted at op %d: %v", m.Name(), j, err)
					return
				}
			}
		})
	}
	{
		m, inj := mons["benign"], injectors["benign"]
		done := make(chan struct{})
		untouchedDone = append(untouchedDone, done)
		rt.Spawn("benign", func(p *proc.P) {
			defer close(done)
			for j := 0; j < 5; j++ {
				if err := pair(m, p); err != nil {
					t.Errorf("benign driver failed clean prefix: %v", err)
					return
				}
			}
			// Deterministic benign fault: the Wait is recorded and queued
			// but does not block, so every later event by this process is
			// an ST-4 "event by a process on a waiting list" — the same
			// finite violation stream in both runs, and the driver never
			// parks.
			inj.Arm()
			if err := m.Enter(p, "Op"); err != nil {
				t.Errorf("benign Enter: %v", err)
				return
			}
			if err := m.Wait(p, "Op", "ok"); err != nil {
				t.Errorf("benign Wait: %v", err)
				return
			}
			if err := m.Exit(p, "Op"); err != nil {
				t.Errorf("benign Exit: %v", err)
				return
			}
			for j := 0; j < 10; j++ {
				if err := pair(m, p); err != nil {
					t.Errorf("benign driver tail: %v", err)
					return
				}
			}
		})
	}
	for _, name := range faultyMons {
		m, inj := mons[name], injectors[name]
		rt.Spawn(name, func(p *proc.P) {
			for j := 0; j < 10; j++ {
				if err := pair(m, p); err != nil {
					return
				}
			}
			inj.Arm()
			// This Exit keeps the lock (the injected fault): the monitor
			// is wedged with a stale occupant until recovery resets it —
			// or forever, in the baseline run.
			if err := pair(m, p); err != nil {
				return
			}
			for j := 0; j < 10; j++ {
				// Without recovery the first Enter parks forever (AbortAll
				// unwinds it at the end). With recovery the reset either
				// aborts the parked Enter (ErrAborted → return) or, if it
				// landed between ops, lets the loop finish cleanly.
				if err := pair(m, p); err != nil {
					return
				}
			}
		})
	}

	for _, done := range untouchedDone {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("untouched driver never finished — a reset stopped the world?")
		}
	}
	if withRecovery {
		// (a) the resets happened, and checkpoints kept completing
		// afterwards: recovery never stopped the detection pipeline.
		deadline := time.Now().Add(20 * time.Second)
		for det.Stats().Resets < len(faultyMons) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d resets applied, want ≥ %d", det.Stats().Resets, len(faultyMons))
			}
			time.Sleep(time.Millisecond)
		}
		checksAtReset := det.Stats().Checks
		for det.Stats().Checks <= checksAtReset {
			if time.Now().After(deadline) {
				t.Fatal("no checkpoint completed after the resets — world stopped")
			}
			time.Sleep(time.Millisecond)
		}
	}

	cancel()
	violations := <-runDone
	if err := exp.Close(); err != nil {
		t.Fatalf("exporter close: %v", err)
	}
	rt.AbortAll() // unwind permanently parked faulty drivers (baseline run)
	rt.Join()

	rep, err := export.ReadDir(sink.Dir())
	if err != nil {
		t.Fatal(err)
	}
	res := recoveryRunResult{stats: det.Stats(), violations: violations, replay: rep}
	if mgr != nil {
		res.actions = mgr.Log()
	}
	return res
}

// untouchedViolationKeys projects the run's violations onto the
// untouched monitors' set of (rule, monitor, pid, cond) keys —
// timestamps, messages and global sequence numbers vary with
// checkpoint instants and are excluded, like in violKey.
func untouchedViolationKeys(vs []rules.Violation) map[string]bool {
	keep := make(map[string]bool, len(untouchedMons))
	for _, m := range untouchedMons {
		keep[m] = true
	}
	out := make(map[string]bool)
	for _, v := range vs {
		if keep[v.Monitor] {
			out[fmt.Sprintf("%s|%s|%d|%s", v.Rule, v.Monitor, v.Pid, v.Cond)] = true
		}
	}
	return out
}

// normalizedStream re-encodes one monitor's events with the global
// sequence numbers zeroed (see the file comment for why).
func normalizedStream(t *testing.T, events event.Seq, mon string) []byte {
	t.Helper()
	var own event.Seq
	for _, e := range events {
		if e.Monitor == mon {
			e.Seq = 0
			own = append(own, e)
		}
	}
	var buf bytes.Buffer
	if err := event.WriteBinary(&buf, own); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOnlineRecoveryDoesNotStopTheWorld(t *testing.T) {
	t.Parallel()
	baseline := runOnlineRecoveryWorkload(t, false)
	recovered := runOnlineRecoveryWorkload(t, true)

	// The baseline really is faulty and really is reset-free.
	if len(baseline.violations) == 0 {
		t.Fatal("baseline run found no violations — the injectors never fired")
	}
	if baseline.stats.Resets != 0 || len(baseline.replay.Markers) != 0 {
		t.Fatalf("baseline run reset (%d) or exported markers (%d)",
			baseline.stats.Resets, len(baseline.replay.Markers))
	}

	// The recovery run reset every covered faulty monitor, logged it,
	// and the markers round-tripped through the WAL.
	if recovered.stats.Resets < len(faultyMons) {
		t.Fatalf("recovery run applied %d resets, want ≥ %d", recovered.stats.Resets, len(faultyMons))
	}
	if len(recovered.replay.Markers) != recovered.stats.Resets {
		t.Fatalf("%d markers exported for %d resets", len(recovered.replay.Markers), recovered.stats.Resets)
	}
	markerMons := make(map[string]bool)
	for _, mk := range recovered.replay.Markers {
		markerMons[mk.Monitor] = true
		if mk.Horizon <= 0 || mk.Rule == "" {
			t.Fatalf("malformed marker %+v", mk)
		}
	}
	for _, name := range faultyMons {
		if !markerMons[name] {
			t.Fatalf("no recovery marker for %s (markers: %+v)", name, recovered.replay.Markers)
		}
	}
	for _, name := range untouchedMons {
		if markerMons[name] {
			t.Fatalf("untouched monitor %s was reset", name)
		}
	}
	shardLocal := 0
	for _, a := range recovered.actions {
		if a.Taken == "monitor reset (shard-local)" {
			shardLocal++
		} else if strings.Contains(a.Taken, "monitor reset") {
			t.Fatalf("recovery took a non-shard-local reset: %+v", a)
		}
	}
	if shardLocal < len(faultyMons) {
		t.Fatalf("manager log shows %d shard-local resets, want ≥ %d:\n%+v",
			shardLocal, len(faultyMons), recovered.actions)
	}

	// (b) untouched monitors are bit-for-bit unaffected by recovery:
	// identical violation sets…
	wantKeys := untouchedViolationKeys(baseline.violations)
	gotKeys := untouchedViolationKeys(recovered.violations)
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("untouched monitors' violation sets differ:\nbaseline:  %v\nrecovered: %v", wantKeys, gotKeys)
	}
	if len(wantKeys) == 0 {
		t.Fatal("benign monitor produced no violations — the comparison is vacuous")
	}
	// …and identical exported event streams (modulo global sequence
	// numbering; see the file comment).
	for _, name := range untouchedMons {
		want := normalizedStream(t, baseline.replay.Events, name)
		got := normalizedStream(t, recovered.replay.Events, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("monitor %s exported different events with recovery enabled (%d vs %d bytes)",
				name, len(got), len(want))
		}
	}
	// The faulty monitors' exported streams have the reset gap: the
	// recovery run must not export MORE faulty-monitor events than the
	// baseline plus its fresh-life tail, and the discard is accounted.
	if recovered.stats.Resets > 0 && recovered.stats.ResetDropped < 0 {
		t.Fatalf("negative ResetDropped: %+v", recovered.stats)
	}
}
