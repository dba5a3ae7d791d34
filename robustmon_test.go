package robustmon_test

import (
	"bytes"
	"testing"
	"time"

	"robustmon"
)

var epoch = time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)

// TestPublicAPIQuickstart exercises the full public surface the way the
// README's quick start does: build a monitor, run processes, record
// history, detect an injected fault, export and re-check the trace.
func TestPublicAPIQuickstart(t *testing.T) {
	t.Parallel()
	spec := robustmon.Spec{
		Name:       "account",
		Kind:       robustmon.OperationManager,
		Conditions: []string{"nonZero"},
		Procedures: []string{"Deposit", "Withdraw"},
	}
	db := robustmon.NewHistory(robustmon.WithFullTrace())
	clk := robustmon.NewVirtualClock(epoch)
	mon, err := robustmon.NewMonitor(spec,
		robustmon.WithRecorder(db), robustmon.WithClock(clk))
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	det := robustmon.NewDetector(db, robustmon.DetectorConfig{
		Tmax: 10 * time.Second, Tio: 10 * time.Second, Clock: clk,
	}, mon)

	rt := robustmon.NewRuntime()
	balance := 0
	for i := 0; i < 4; i++ {
		rt.Spawn("depositor", func(p *robustmon.Process) {
			if err := mon.Enter(p, "Deposit"); err != nil {
				return
			}
			balance += 10
			_ = mon.SignalExit(p, "Deposit", "nonZero")
		})
		rt.Join()
	}
	if vs := det.CheckNow(); len(vs) != 0 {
		t.Fatalf("clean run produced violations: %v", vs)
	}
	if balance != 40 {
		t.Fatalf("balance = %d, want 40", balance)
	}

	// Inject the internal-termination fault and detect it via Tmax.
	rt.Spawn("dier", func(p *robustmon.Process) {
		if err := mon.Enter(p, "Withdraw"); err != nil {
			return
		}
	})
	rt.Join()
	clk.Advance(time.Minute)
	vs := det.CheckNow()
	if len(vs) == 0 {
		t.Fatal("termination fault not detected")
	}

	// Export and offline-verify the trace: both checkers must flag it.
	var buf bytes.Buffer
	if err := robustmon.WriteTraceJSON(&buf, db.Full()); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}
	trace, err := robustmon.ReadTraceJSON(&buf)
	if err != nil {
		t.Fatalf("ReadTraceJSON: %v", err)
	}
	results, err := robustmon.VerifyTrace(trace, robustmon.VerifyOptions{
		Specs: []robustmon.Spec{spec},
		Tmax:  10 * time.Second,
		End:   clk.Now(),
	})
	if err != nil {
		t.Fatalf("VerifyTrace: %v", err)
	}
	if len(results) != 1 || results[0].Clean() {
		t.Fatalf("offline check missed the fault: %+v", results)
	}
	if !robustmon.VerifyAgreement(results) {
		t.Fatal("offline checkers disagree")
	}
}

func TestPublicAPIInjectionAndRecovery(t *testing.T) {
	t.Parallel()
	spec := robustmon.Spec{
		Name: "m", Kind: robustmon.OperationManager,
		Conditions: []string{"ok"},
	}
	inj := robustmon.NewInjector(robustmon.SignalMonitorNotReleased)
	db := robustmon.NewHistory()
	clk := robustmon.NewVirtualClock(epoch)
	mon, err := robustmon.NewMonitor(spec,
		robustmon.WithRecorder(db), robustmon.WithClock(clk),
		robustmon.WithHooks(inj.Hooks()))
	if err != nil {
		t.Fatal(err)
	}
	rt := robustmon.NewRuntime()
	mgr := robustmon.NewRecoveryManager(robustmon.ResetMonitor, rt, mon)
	det := robustmon.NewDetector(db, robustmon.DetectorConfig{
		Clock: clk, OnViolation: mgr.Handle,
	}, mon)

	inj.Arm()
	rt.Spawn("p", func(p *robustmon.Process) {
		if err := mon.Enter(p, "Op"); err != nil {
			return
		}
		_ = mon.Exit(p, "Op")
	})
	rt.Join()
	if vs := det.CheckNow(); len(vs) == 0 {
		t.Fatal("keep-lock fault not detected")
	}
	if log := mgr.Log(); len(log) == 0 || log[0].Taken != "monitor reset" {
		t.Fatalf("recovery log = %+v", log)
	}
	if mon.InsideCount() != 0 {
		t.Fatal("monitor not reset")
	}
}

func TestPublicAPIPathExpressions(t *testing.T) {
	t.Parallel()
	p, err := robustmon.ParsePath("path Open ; { Use } ; Close end")
	if err != nil {
		t.Fatalf("ParsePath: %v", err)
	}
	m := p.NewMatcher()
	for _, call := range []string{"Open", "Use", "Use", "Close"} {
		if err := m.Step(call); err != nil {
			t.Fatalf("Step(%s): %v", call, err)
		}
	}
	if !m.AtCycleBoundary() {
		t.Fatal("complete cycle not at boundary")
	}
	if err := m.Step("Close"); err == nil {
		t.Fatal("Close after Close accepted")
	}
}

func TestPublicAPIAssertions(t *testing.T) {
	t.Parallel()
	set := robustmon.NewAssertionSet("m")
	bad := false
	set.Add("inv", func() error {
		if bad {
			return errTest
		}
		return nil
	})
	if vs := set.Check(epoch); len(vs) != 0 {
		t.Fatalf("holding assertion flagged: %v", vs)
	}
	bad = true
	if vs := set.Check(epoch); len(vs) != 1 {
		t.Fatalf("broken assertion not flagged: %v", vs)
	}
}

var errTest = errorString("invariant broken")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestAllFaultKindsExported(t *testing.T) {
	t.Parallel()
	kinds := robustmon.AllFaultKinds()
	if len(kinds) != 21 {
		t.Fatalf("AllFaultKinds = %d, want 21", len(kinds))
	}
	if kinds[0] != robustmon.EnterMutexViolation || kinds[20] != robustmon.SelfDeadlock {
		t.Fatal("fault kind constants out of order")
	}
}

// TestPublicAPIStreamingExport drives the facade's export pipeline:
// a detector streams checkpoint segments through an Exporter into a
// WAL directory, and ReadExportDir replays the run without the
// database ever keeping a full trace.
func TestPublicAPIStreamingExport(t *testing.T) {
	t.Parallel()
	spec := robustmon.Spec{
		Name:       "account",
		Kind:       robustmon.OperationManager,
		Conditions: []string{"nonZero"},
		Procedures: []string{"Deposit"},
	}
	dir := t.TempDir()
	sink, err := robustmon.NewWALSink(dir, robustmon.WALConfig{})
	if err != nil {
		t.Fatalf("NewWALSink: %v", err)
	}
	exp := robustmon.NewExporter(sink, robustmon.ExporterConfig{Policy: robustmon.ExportBlock})
	db := robustmon.NewHistory() // no WithFullTrace: the WAL is the only copy
	mon, err := robustmon.NewMonitor(spec, robustmon.WithRecorder(db))
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	det := robustmon.NewDetector(db, robustmon.DetectorConfig{
		Tmax:     time.Hour,
		Tio:      time.Hour,
		Exporter: exp,
	}, mon)

	rt := robustmon.NewRuntime()
	rt.Spawn("worker", func(p *robustmon.Process) {
		for i := 0; i < 50; i++ {
			if err := mon.Enter(p, "Deposit"); err != nil {
				return
			}
			_ = mon.SignalExit(p, "Deposit", "nonZero")
		}
	})
	rt.Join()
	if vs := det.CheckNow(); len(vs) != 0 {
		t.Fatalf("fault-free run reported violations: %v", vs)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := exp.Stats(); st.DroppedSegments != 0 || st.Written == 0 {
		t.Fatalf("exporter stats = %+v, want writes and no drops", st)
	}

	rep, err := robustmon.ReadExportDir(dir)
	if err != nil {
		t.Fatalf("ReadExportDir: %v", err)
	}
	if rep.Recovered {
		t.Fatal("clean run reported a recovered truncation")
	}
	if int64(len(rep.Events)) != 100 {
		t.Fatalf("replayed %d events, want 100", len(rep.Events))
	}
	results, err := robustmon.VerifyTrace(rep.Events, robustmon.VerifyOptions{
		Specs: []robustmon.Spec{spec},
	})
	if err != nil {
		t.Fatalf("VerifyTrace on replay: %v", err)
	}
	for _, r := range results {
		if !r.Clean() {
			t.Fatalf("replayed trace not clean: %+v", r)
		}
	}
}

func TestPublicAPITraceStore(t *testing.T) {
	t.Parallel()
	spec := robustmon.Spec{
		Name:       "account",
		Kind:       robustmon.OperationManager,
		Conditions: []string{"nonZero"},
		Procedures: []string{"Deposit"},
	}
	dir := t.TempDir()
	maint := robustmon.NewTraceIndexMaintainer(dir)
	sink, err := robustmon.NewWALSink(dir, robustmon.WALConfig{
		MaxFileBytes: 1 << 10, // rotate often: a real backlog to index
		OnSeal:       []robustmon.ExportSealedSink{maint},
		CompactEvery: 4,
		Compact: func(dir string) error {
			_, err := robustmon.CompactExportDir(dir, robustmon.CompactionConfig{})
			return err
		},
	})
	if err != nil {
		t.Fatalf("NewWALSink: %v", err)
	}
	exp := robustmon.NewExporter(sink, robustmon.ExporterConfig{Policy: robustmon.ExportBlock})
	db := robustmon.NewHistory()
	mon, err := robustmon.NewMonitor(spec, robustmon.WithRecorder(db))
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	det := robustmon.NewDetector(db, robustmon.DetectorConfig{
		Tmax:     time.Hour,
		Tio:      time.Hour,
		Exporter: exp,
	}, mon)

	rt := robustmon.NewRuntime()
	rt.Spawn("worker", func(p *robustmon.Process) {
		for i := 0; i < 400; i++ {
			if err := mon.Enter(p, "Deposit"); err != nil {
				return
			}
			_ = mon.SignalExit(p, "Deposit", "nonZero")
			if i%25 == 24 {
				det.CheckNow()
			}
		}
	})
	rt.Join()
	det.CheckNow()
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	full, err := robustmon.ReadExportDir(dir)
	if err != nil {
		t.Fatalf("ReadExportDir: %v", err)
	}
	if len(full.Events) != 800 {
		t.Fatalf("replayed %d events, want 800", len(full.Events))
	}

	// Windowed query through the facade.
	r, err := robustmon.OpenTraceReader(dir)
	if err != nil {
		t.Fatalf("OpenTraceReader: %v", err)
	}
	rep, err := r.ReplayRange(101, 200)
	if err != nil {
		t.Fatalf("ReplayRange: %v", err)
	}
	if len(rep.Events) != 100 || rep.Events[0].Seq != 101 {
		t.Fatalf("window replayed %d events from seq %d", len(rep.Events), rep.Events[0].Seq)
	}

	// Rebuild must agree with whatever mix of sink maintenance and
	// background compaction left on disk.
	idx, err := robustmon.RebuildTraceIndex(dir)
	if err != nil {
		t.Fatalf("RebuildTraceIndex: %v", err)
	}
	if errs := idx.Verify(dir); len(errs) != 0 {
		t.Fatalf("rebuilt index fails Verify: %v", errs)
	}
}
