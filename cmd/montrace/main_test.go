package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/compact"
	"robustmon/internal/export/net"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// TestHelpTextGolden pins the documented command surface: `montrace
// help` (and every usage error) prints exactly testdata/help.golden.
// Regenerate deliberately with `go run ./cmd/montrace help >
// cmd/montrace/testdata/help.golden` when the surface changes.
func TestHelpTextGolden(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if usageText != string(want) {
		t.Fatalf("usage text drifted from testdata/help.golden:\n--- got ---\n%s\n--- want ---\n%s", usageText, want)
	}
}

// TestLoadExportDirWithMarkers: an export directory holding recovery
// markers loads them alongside the events, and both dump and check
// accept it (check still exits clean — a marker is not a fault).
func TestLoadExportDirWithMarkers(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "run")
	sink, err := export.NewWALSink(dir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	seg := event.Seq{
		{Seq: 1, Monitor: "boundedbuffer", Type: event.Enter, Pid: 1, Proc: "Send", Flag: event.Completed, Time: at},
		{Seq: 2, Monitor: "boundedbuffer", Type: event.SignalExit, Pid: 1, Proc: "Send", Cond: "notEmpty", Time: at},
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "boundedbuffer", Events: seg}); err != nil {
		t.Fatal(err)
	}
	mk := history.RecoveryMarker{Monitor: "boundedbuffer", Horizon: 2, Dropped: 3, Rule: "ST-R", At: at}
	if err := sink.WriteMarker(mk); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	ld, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	trace, markers := ld.trace, ld.markers
	if len(trace) != 2 || len(markers) != 1 || markers[0] != mk {
		t.Fatalf("load: %d events, markers %+v", len(trace), markers)
	}
	if code := dump([]string{"-in", dir}); code != 0 {
		t.Fatalf("dump on marker dir exit = %d", code)
	}
	if code := check([]string{"-in", dir}); code != 0 {
		t.Fatalf("check on marker dir exit = %d, want 0 (markers are notes, not faults)", code)
	}
	if code := stats([]string{"-in", dir}); code != 0 {
		t.Fatalf("stats on marker dir exit = %d", code)
	}
}

func TestRecordCheckCleanJSON(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "clean.jsonl")
	if code := record([]string{"-out", path, "-items", "20"}); code != 0 {
		t.Fatalf("record exit = %d", code)
	}
	traceLd, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	trace := traceLd.trace
	// 20 sends + 20 receives, two events each, plus schedule-dependent
	// Wait events when the buffer boundary is hit.
	if len(trace) < 80 {
		t.Fatalf("trace has %d events, want ≥ 80", len(trace))
	}
	if code := check([]string{"-in", path}); code != 0 {
		t.Fatalf("check on clean trace exit = %d, want 0", code)
	}
}

func TestRecordCheckFaultyBinary(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "faulty.bin")
	if code := record([]string{"-out", path, "-items", "10", "-faulty"}); code != 0 {
		t.Fatalf("record exit = %d", code)
	}
	if code := check([]string{"-in", path}); code != 3 {
		t.Fatalf("check on faulty trace exit = %d, want 3", code)
	}
}

func TestDumpBothModels(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if code := record([]string{"-out", path, "-items", "5"}); code != 0 {
		t.Fatalf("record exit = %d", code)
	}
	if code := dump([]string{"-in", path}); code != 0 {
		t.Fatalf("dump exit = %d", code)
	}
	if code := dump([]string{"-in", path, "-original"}); code != 0 {
		t.Fatalf("dump -original exit = %d", code)
	}
}

func TestCheckMissingInput(t *testing.T) {
	t.Parallel()
	if code := check([]string{}); code != 2 {
		t.Fatalf("check without -in exit = %d, want 2", code)
	}
	if code := check([]string{"-in", filepath.Join(t.TempDir(), "nope.jsonl")}); code != 1 {
		t.Fatalf("check on missing file exit = %d, want 1", code)
	}
}

func TestStatsSubcommand(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "s.jsonl")
	if code := record([]string{"-out", path, "-items", "10"}); code != 0 {
		t.Fatalf("record exit = %d", code)
	}
	if code := stats([]string{"-in", path}); code != 0 {
		t.Fatalf("stats exit = %d", code)
	}
	if code := stats([]string{}); code != 2 {
		t.Fatalf("stats without -in exit = %d, want 2", code)
	}
	if code := stats([]string{"-in", filepath.Join(t.TempDir(), "missing")}); code != 1 {
		t.Fatalf("stats on missing file exit = %d, want 1", code)
	}
}

func TestDumpMissingInput(t *testing.T) {
	t.Parallel()
	if code := dump([]string{}); code != 2 {
		t.Fatalf("dump without -in exit = %d, want 2", code)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if code := record([]string{"-out", filepath.Join(dir, "ok.jsonl"), "-items", "1"}); code != 0 {
		t.Fatal("setup record failed")
	}
	if _, err := load(bad); err == nil {
		t.Fatal("load of missing file succeeded")
	}
}

func TestRecordToExportDirRoundTrip(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "run")
	if code := record([]string{"-outdir", dir, "-items", "20"}); code != 0 {
		t.Fatalf("record -outdir exit = %d", code)
	}
	traceLd, err := load(dir)
	if err != nil {
		t.Fatalf("load(dir): %v", err)
	}
	trace := traceLd.trace
	if len(trace) < 80 {
		t.Fatalf("directory trace has %d events, want ≥ 80", len(trace))
	}
	if err := trace.Validate(); err != nil {
		t.Fatalf("directory trace invalid: %v", err)
	}
	// The whole toolchain accepts the directory where a file would go.
	if code := check([]string{"-in", dir}); code != 0 {
		t.Fatalf("check on export dir exit = %d, want 0", code)
	}
	if code := dump([]string{"-in", dir}); code != 0 {
		t.Fatalf("dump on export dir exit = %d", code)
	}
	if code := stats([]string{"-in", dir}); code != 0 {
		t.Fatalf("stats on export dir exit = %d", code)
	}
}

func TestRecordExportDirFaulty(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "run")
	if code := record([]string{"-outdir", dir, "-items", "10", "-faulty"}); code != 0 {
		t.Fatalf("record -outdir -faulty exit = %d", code)
	}
	if code := check([]string{"-in", dir}); code != 3 {
		t.Fatalf("check on faulty export dir exit = %d, want 3", code)
	}
}

func TestLoadTruncatedExportDirRecovers(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "run")
	if code := record([]string{"-outdir", dir, "-items", "20"}); code != 0 {
		t.Fatalf("record -outdir exit = %d", code)
	}
	fullLd, err := load(dir)
	if err != nil {
		t.Fatalf("load(full): %v", err)
	}
	full := fullLd.trace
	// Simulate a crash mid-append: chop the tail off the newest file.
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	sort.Strings(names)
	newest := names[len(names)-1]
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, blob[:len(blob)-5], 0o666); err != nil {
		t.Fatal(err)
	}
	gotLd, err := load(dir)
	if err != nil {
		t.Fatalf("load(truncated): %v", err)
	}
	got := gotLd.trace
	if len(got) == 0 || len(got) >= len(full) {
		t.Fatalf("recovered %d events from torn dir, want a strict non-empty prefix of %d", len(got), len(full))
	}
	for i, e := range got {
		if e.Seq != full[i].Seq {
			t.Fatalf("recovered trace diverges at %d: seq %d vs %d", i, e.Seq, full[i].Seq)
		}
	}
}

// TestTraceStoreWorkflow drives the whole trace-store surface through
// the CLI: record a streamed run, index it, query a window, compact
// it, and confirm the windowed query and the full check still agree.
func TestTraceStoreWorkflow(t *testing.T) {
	t.Parallel()
	dir := filepath.Join(t.TempDir(), "run")
	if code := record([]string{"-outdir", dir, "-items", "64"}); code != 0 {
		t.Fatalf("record exit = %d", code)
	}
	fullLd, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	full := fullLd.trace
	if code := indexCmd([]string{"-in", dir}); code != 0 {
		t.Fatalf("index exit = %d", code)
	}
	if code := indexCmd([]string{"-in", dir, "-verify"}); code != 0 {
		t.Fatalf("index -verify exit = %d", code)
	}

	// A window in the middle, via the index-backed reader.
	mid := full[len(full)/2].Seq
	win := window{from: mid - 10, to: mid + 10}
	gotLd, err := loadWindowed(dir, win)
	if err != nil {
		t.Fatal(err)
	}
	got := gotLd.trace
	want := full.SubSeq(mid-10, mid+10)
	if len(got) != len(want) {
		t.Fatalf("windowed load returned %d events, want %d", len(got), len(want))
	}

	// Monitor filtering composes with the window.
	byMonLd, err := loadWindowed(dir, window{from: mid - 10, to: mid + 10, monitors: "boundedbuffer"})
	if err != nil {
		t.Fatal(err)
	}
	byMon := byMonLd.trace
	if len(byMon) != len(want.ByMonitor("boundedbuffer")) {
		t.Fatalf("monitor-filtered window returned %d events, want %d",
			len(byMon), len(want.ByMonitor("boundedbuffer")))
	}

	// The same flags work through the subcommands.
	if code := dump([]string{"-in", dir, "-from", fmt.Sprint(mid - 10), "-to", fmt.Sprint(mid + 10)}); code != 0 {
		t.Fatalf("windowed dump exit = %d", code)
	}

	// Compact everything (the recorder is closed, so -keep 0 is safe)
	// and the replay must be unchanged.
	if code := compactCmd([]string{"-in", dir, "-keep", "0"}); code != 0 {
		t.Fatalf("compact exit = %d", code)
	}
	afterLd, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	after := afterLd.trace
	if len(after) != len(full) {
		t.Fatalf("compaction changed the trace: %d -> %d events", len(full), len(after))
	}
	if code := indexCmd([]string{"-in", dir, "-verify"}); code != 0 {
		t.Fatalf("index -verify after compact exit = %d (compaction must keep the index in step)", code)
	}
	if code := check([]string{"-in", dir}); code != 0 {
		t.Fatalf("check on compacted dir exit = %d", code)
	}
}

// TestFleetRootPerOrigin: a directory of origin subdirectories (a
// collector's fleet root) is detected and read per origin, never
// merged, with the worst per-origin exit code surfacing at the root.
func TestFleetRootPerOrigin(t *testing.T) {
	t.Parallel()
	root := filepath.Join(t.TempDir(), "fleet")
	// A fleet root is nothing but origin subdirectories, each an
	// ordinary export directory — so the plain recorder can build one.
	if code := record([]string{"-outdir", filepath.Join(root, "prod-a"), "-items", "10"}); code != 0 {
		t.Fatalf("record prod-a exit = %d", code)
	}
	if code := record([]string{"-outdir", filepath.Join(root, "prod-b"), "-items", "8", "-faulty"}); code != 0 {
		t.Fatalf("record prod-b exit = %d", code)
	}
	origins := fleetOrigins(root)
	if len(origins) != 2 || origins[0] != "prod-a" || origins[1] != "prod-b" {
		t.Fatalf("fleetOrigins = %v, want [prod-a prod-b]", origins)
	}
	if o := fleetOrigins(filepath.Join(root, "prod-a")); o != nil {
		t.Fatalf("an ordinary export dir claimed to be a fleet root: %v", o)
	}
	if code := dump([]string{"-in", root}); code != 0 {
		t.Fatalf("dump on fleet root exit = %d", code)
	}
	if code := stats([]string{"-in", root}); code != 0 {
		t.Fatalf("stats on fleet root exit = %d", code)
	}
	// prod-b's injected fault must surface through the root.
	if code := check([]string{"-in", root}); code != 3 {
		t.Fatalf("check on fleet root exit = %d, want 3 (faulty origin wins)", code)
	}
}

// TestRecordShipToCollector: record -ship streams the run to an
// in-process collector; the collected origin directory replays
// identically to the -outdir copy teed off the same run.
func TestRecordShipToCollector(t *testing.T) {
	t.Parallel()
	root := filepath.Join(t.TempDir(), "fleet")
	col, err := netexport.NewCollector(netexport.CollectorConfig{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go col.Serve(lis)

	local := filepath.Join(t.TempDir(), "local")
	if code := record([]string{
		"-outdir", local, "-ship", lis.Addr().String(), "-origin", "prod-a", "-items", "20",
	}); code != 0 {
		t.Fatalf("record -ship exit = %d", code)
	}
	if err := col.Close(); err != nil {
		t.Fatalf("collector close: %v", err)
	}

	wantLd, err := load(local)
	if err != nil {
		t.Fatalf("load(local): %v", err)
	}
	want := wantLd.trace
	gotLd, err := load(filepath.Join(root, "prod-a"))
	if err != nil {
		t.Fatalf("load(collected): %v", err)
	}
	got := gotLd.trace
	if len(want) == 0 || !reflect.DeepEqual(want, got) {
		t.Fatalf("collected replay differs from local: %d events local, %d collected", len(want), len(got))
	}
	// The fleet root reads back through the normal toolchain.
	if code := check([]string{"-in", root}); code != 0 {
		t.Fatalf("check on collected fleet root exit = %d", code)
	}
}

// TestWindowFlagsOnFlatFile: windowing degrades gracefully on single
// trace files — filtered after load, no index involved.
func TestWindowFlagsOnFlatFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if code := record([]string{"-out", path, "-items", "16"}); code != 0 {
		t.Fatalf("record exit = %d", code)
	}
	fullLd, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	full := fullLd.trace
	gotLd, err := loadWindowed(path, window{from: 5, to: 14})
	if err != nil {
		t.Fatal(err)
	}
	got := gotLd.trace
	if want := full.SubSeq(5, 14); len(got) != len(want) {
		t.Fatalf("flat-file window returned %d events, want %d", len(got), len(want))
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed. The redirect is process-wide, so its
// callers must not be parallel tests: a test printing meanwhile would
// write into the pipe, or into it after it closed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outC := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		outC <- string(b)
	}()
	fn()
	os.Stdout = old
	_ = w.Close()
	return <-outC
}

// buildRetainedDir writes a deterministic export directory (one record
// per file) and retention-compacts it below seq 10, leaving a
// tombstone. Returns the directory.
func buildRetainedDir(t *testing.T, dir string) {
	t.Helper()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	write := func(mon string, from, to int64) {
		t.Helper()
		var s event.Seq
		for i := from; i <= to; i++ {
			s = append(s, event.Event{
				Seq: i, Monitor: mon, Type: event.Enter, Pid: i, Proc: "Send",
				Flag: event.Completed,
				Time: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond),
			})
		}
		if err := sink.WriteSegment(export.Segment{Monitor: mon, Events: s}); err != nil {
			t.Fatal(err)
		}
	}
	write("alpha", 1, 4)
	write("beta", 5, 9)
	write("alpha", 10, 12)
	write("beta", 13, 15)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := compact.Dir(dir, compact.Config{KeepNewest: -1, RetainSeq: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestDumpTombstoneGolden pins dump's tombstone rendering: the
// truncation banner and per-monitor dropped ranges lead the dump,
// ahead of the surviving events. Regenerate deliberately (the fixture
// is deterministic) by updating testdata/dump_tombstone.golden.
func TestDumpTombstoneGolden(t *testing.T) {
	dir := t.TempDir()
	buildRetainedDir(t, dir)
	got := captureStdout(t, func() {
		if code := dump([]string{"-in", dir}); code != 0 {
			t.Errorf("dump exit = %d", code)
		}
	})
	golden := filepath.Join("testdata", "dump_tombstone.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("dump tombstone rendering drifted from testdata/dump_tombstone.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFleetRootUnderRetention: a fleet root whose origins were
// retention-compacted stays consistent per origin — dump, check and
// stats all run cleanly over the root, and each origin's output over
// the root is byte-identical to running the tool on the origin
// directory directly.
func TestFleetRootUnderRetention(t *testing.T) {
	root := t.TempDir()
	for _, origin := range []string{"prod-a", "prod-b"} {
		buildRetainedDir(t, filepath.Join(root, origin))
	}
	rootOut := captureStdout(t, func() {
		if code := dump([]string{"-in", root}); code != 0 {
			t.Errorf("dump on fleet root exit = %d", code)
		}
	})
	for _, origin := range []string{"prod-a", "prod-b"} {
		originOut := captureStdout(t, func() {
			if code := dump([]string{"-in", filepath.Join(root, origin)}); code != 0 {
				t.Errorf("dump on origin %s exit = %d", origin, code)
			}
		})
		if !strings.Contains(rootOut, originOut) {
			t.Fatalf("origin %s: per-origin dump output not byte-identical inside the fleet-root dump:\n--- origin ---\n%s\n--- root ---\n%s",
				origin, originOut, rootOut)
		}
		if !strings.Contains(originOut, "TRUNCATED below seq 10 by retention") {
			t.Fatalf("origin %s dump lacks the tombstone banner:\n%s", origin, originOut)
		}
	}
	statsOut := captureStdout(t, func() {
		if code := stats([]string{"-in", root}); code != 0 {
			t.Errorf("stats on fleet root exit = %d", code)
		}
	})
	if c := strings.Count(statsOut, "retention: truncated below seq 10"); c != 2 {
		t.Fatalf("stats over the fleet root reported the truncation %d times, want once per origin:\n%s", c, statsOut)
	}
	// The fixture's monitors are not the demo buffer spec, so check
	// needs declarations for them; it still must accept the truncated
	// store and surface the retention note per origin.
	const decl = `alpha: Monitor (coordinator);
    cond notFull, notEmpty;
    proc Send, Receive;
    rmax 4;
    send Send;
    receive Receive;
end alpha.

beta: Monitor (coordinator);
    cond notFull, notEmpty;
    proc Send, Receive;
    rmax 4;
    send Send;
    receive Receive;
end beta.
`
	spec := filepath.Join(t.TempDir(), "fixture.mdl")
	if err := os.WriteFile(spec, []byte(decl), 0o666); err != nil {
		t.Fatal(err)
	}
	checkOut := captureStdout(t, func() {
		if code := check([]string{"-in", root, "-spec", spec}); code != 0 && code != 3 {
			t.Errorf("check on fleet root exit = %d", code)
		}
	})
	if c := strings.Count(checkOut, "truncated by retention below seq 10"); c != 2 {
		t.Fatalf("check over the fleet root noted the truncation %d times, want once per origin:\n%s", c, checkOut)
	}
}

// buildAlertedDir writes a deterministic export directory holding a
// short trace, one health snapshot and a fire/clear alert pair — the
// store a self-watching detector leaves behind.
func buildAlertedDir(t *testing.T, dir string) {
	t.Helper()
	sink, err := export.NewWALSink(dir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 7, 1, 12, 0, 0, 0, time.UTC)
	seg := event.Seq{
		{Seq: 1, Monitor: "boundedbuffer", Type: event.Enter, Pid: 1, Proc: "Send", Flag: event.Completed, Time: at},
		{Seq: 2, Monitor: "boundedbuffer", Type: event.SignalExit, Pid: 1, Proc: "Send", Cond: "notEmpty", Time: at},
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "boundedbuffer", Events: seg}); err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 2; seq++ {
		h := obs.HealthRecord{
			At: at.Add(time.Duration(seq) * time.Second), Seq: seq,
			Metrics: obs.Snapshot{Counters: []obs.Metric{{Name: "history_append_total", Value: 10 * seq}}},
		}
		if err := sink.WriteHealth(h); err != nil {
			t.Fatal(err)
		}
	}
	fire := obsrules.Alert{
		At: at.Add(time.Second), Seq: 1, Rule: "slow-checks",
		Metric: "detect_check_ns", Value: 9, Ceiling: 5, Firing: true,
	}
	clear := fire
	clear.At, clear.Seq, clear.Value, clear.Firing = at.Add(2*time.Second), 2, 3, false
	for _, a := range []obsrules.Alert{fire, clear} {
		if err := sink.WriteAlert(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAlertsSurfaceInSubcommands: a store holding threshold alerts
// shows them in every reading subcommand — stats lists the alert
// timeline (and -rates the delta view), dump interleaves ALERT lines
// at their horizons, check notes the degradation episode — and the
// alerts never turn a clean trace into a faulty exit code.
func TestAlertsSurfaceInSubcommands(t *testing.T) {
	// Not parallel: captureStdout swaps the process-wide os.Stdout,
	// which a parallel test printing at the same time would write to.
	dir := filepath.Join(t.TempDir(), "run")
	buildAlertedDir(t, dir)

	statsOut := captureStdout(t, func() {
		if code := stats([]string{"-in", dir}); code != 0 {
			t.Errorf("stats exit = %d", code)
		}
	})
	if !strings.Contains(statsOut, "pipeline alerts: 2 (1 fired, 1 cleared)") ||
		!strings.Contains(statsOut, "FIRED slow-checks (detect_check_ns=9 > 5)") {
		t.Fatalf("stats does not render the alert timeline:\n%s", statsOut)
	}
	ratesOut := captureStdout(t, func() {
		if code := stats([]string{"-in", dir, "-rates"}); code != 0 {
			t.Errorf("stats -rates exit = %d", code)
		}
	})
	if !strings.Contains(ratesOut, "health timeline (rates): 2 snapshots, 1 intervals") ||
		!strings.Contains(ratesOut, "10.0") { // Δ10 appends over 1s
		t.Fatalf("stats -rates does not render the delta view:\n%s", ratesOut)
	}
	dumpOut := captureStdout(t, func() {
		if code := dump([]string{"-in", dir}); code != 0 {
			t.Errorf("dump exit = %d", code)
		}
	})
	if !strings.Contains(dumpOut, "ALERT at seq 1: FIRED slow-checks") ||
		!strings.Contains(dumpOut, "2 events, 2 pipeline alerts") {
		t.Fatalf("dump does not interleave the alerts:\n%s", dumpOut)
	}
	checkOut := captureStdout(t, func() {
		if code := check([]string{"-in", dir}); code != 0 {
			t.Errorf("check exit = %d, want 0 (alerts are notes, not faults)", code)
		}
	})
	if !strings.Contains(checkOut, "note: pipeline alert at seq 1: FIRED slow-checks") {
		t.Fatalf("check does not note the alert:\n%s", checkOut)
	}
}

// TestFleetStatsMergedTimeline: stats over a fleet root appends the
// merged cross-origin view — every origin's health snapshots in
// wall-clock order under an origin column, and every origin's alerts
// tagged with where they came from.
func TestFleetStatsMergedTimeline(t *testing.T) {
	// Not parallel: captureStdout swaps the process-wide os.Stdout,
	// which a parallel test printing at the same time would write to.
	root := filepath.Join(t.TempDir(), "fleet")
	buildAlertedDir(t, filepath.Join(root, "prod-a"))
	buildAlertedDir(t, filepath.Join(root, "prod-b"))

	out := captureStdout(t, func() {
		if code := stats([]string{"-in", root}); code != 0 {
			t.Errorf("stats on fleet root exit = %d", code)
		}
	})
	if !strings.Contains(out, "== fleet timeline ==") ||
		!strings.Contains(out, "4 snapshots across 2 origins, 4 alerts") {
		t.Fatalf("fleet stats lacks the merged timeline header:\n%s", out)
	}
	// Each origin's two alerts appear under "fleet alerts:", each row
	// naming its origin in the column and the origin= tag (2 rows × 2).
	aIdx := strings.Index(out, "fleet alerts:")
	if aIdx < 0 || strings.Count(out[aIdx:], "prod-a") != 4 || strings.Count(out[aIdx:], "prod-b") != 4 {
		t.Fatalf("fleet alerts are not origin-tagged:\n%s", out)
	}
	ratesOut := captureStdout(t, func() {
		if code := stats([]string{"-in", root, "-rates"}); code != 0 {
			t.Errorf("stats -rates on fleet root exit = %d", code)
		}
	})
	if !strings.Contains(ratesOut, "Δappends") || !strings.Contains(ratesOut, "append/s") {
		t.Fatalf("fleet stats -rates lacks the delta columns:\n%s", ratesOut)
	}
}
