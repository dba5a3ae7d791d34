package compact

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/index"
	"robustmon/internal/history"
	"robustmon/internal/obs"
)

// tev builds a test event with the given monitor and seq.
func tev(monitor string, seq int64) event.Event {
	return event.Event{
		Seq:     seq,
		Monitor: monitor,
		Type:    event.Enter,
		Pid:     seq,
		Proc:    "Op",
		Flag:    event.Completed,
		Time:    time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Millisecond),
	}
}

// tseq builds a seq-sorted segment for one monitor covering [from, to].
func tseq(monitor string, from, to int64) event.Seq {
	var s event.Seq
	for i := from; i <= to; i++ {
		s = append(s, tev(monitor, i))
	}
	return s
}

// buildMessyDir writes a directory of many small files interleaving
// three monitors, with two recovery markers, rotating after every
// record. Returns the directory and the markers written.
func buildMessyDir(t *testing.T, indexed bool) (string, []history.RecoveryMarker) {
	t.Helper()
	dir := t.TempDir()
	cfg := export.WALConfig{MaxFileBytes: 1}
	var m *index.Maintainer
	if indexed {
		m = index.NewMaintainer(dir)
		cfg.OnSeal = []export.SealedSink{m}
	}
	sink, err := export.NewWALSink(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 7, 2, 0, 0, 0, 0, time.UTC)
	mk1 := history.RecoveryMarker{Monitor: "b", Horizon: 12, Dropped: 3, Rule: "FD-2", Pid: 7, At: at}
	mk2 := history.RecoveryMarker{Monitor: "a", Horizon: 21, Dropped: 1, Rule: "ST-5", Pid: 2, At: at.Add(time.Second)}
	write := func(mon string, from, to int64) {
		t.Helper()
		if err := sink.WriteSegment(export.Segment{Monitor: mon, Events: tseq(mon, from, to)}); err != nil {
			t.Fatal(err)
		}
	}
	write("a", 1, 3)
	write("b", 4, 7)
	write("c", 8, 9)
	write("b", 10, 12)
	if err := sink.WriteMarker(mk1); err != nil {
		t.Fatal(err)
	}
	write("b", 13, 15)
	write("a", 16, 21)
	if err := sink.WriteMarker(mk2); err != nil {
		t.Fatal(err)
	}
	write("a", 22, 24)
	write("c", 25, 30)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if m != nil {
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return dir, []history.RecoveryMarker{mk1, mk2}
}

// traceBytes renders a replay's event stream through the binary codec
// — the byte-equivalence yardstick the acceptance criterion demands.
func traceBytes(t *testing.T, events event.Seq) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := event.WriteBinary(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompactionReplayByteIdentical is the subsystem's acceptance
// criterion: replaying a compacted directory yields the identical
// merged event stream (byte for byte through the binary codec) and the
// identical marker list as ReadDir on the uncompacted original —
// including across reset horizons, whose pre-reset events are
// preserved by default.
func TestCompactionReplayByteIdentical(t *testing.T) {
	t.Parallel()
	dir, _ := buildMessyDir(t, false)
	before, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := traceBytes(t, before.Events)

	res, err := Dir(dir, Config{KeepNewest: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesIn < 2 || res.FilesOut >= res.FilesIn {
		t.Fatalf("compaction did not shrink the directory: %+v", res)
	}
	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, traceBytes(t, after.Events)) {
		t.Fatalf("compaction changed the replayed stream: %d events before, %d after",
			len(before.Events), len(after.Events))
	}
	if !reflect.DeepEqual(before.Markers, after.Markers) {
		t.Fatalf("compaction changed the markers:\n%+v\nvs\n%+v", before.Markers, after.Markers)
	}
	if after.Files >= before.Files {
		t.Fatalf("file count %d -> %d, want fewer", before.Files, after.Files)
	}
	// Compaction converges: a second run over the already-compacted
	// backlog must be equivalent again.
	if _, err := Dir(dir, Config{KeepNewest: 1}); err != nil {
		t.Fatal(err)
	}
	again, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, traceBytes(t, again.Events)) {
		t.Fatal("second compaction changed the replayed stream")
	}
}

func TestCompactionNeverTouchesNewestFile(t *testing.T) {
	t.Parallel()
	dir, _ := buildMessyDir(t, false)
	names, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := names[len(names)-1]
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dir(dir, Config{KeepNewest: 1}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("newest file gone after compaction: %v", err)
	}
	info2, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, after) || !info.ModTime().Equal(info2.ModTime()) {
		t.Fatal("compaction touched the active (newest) segment file")
	}
}

func TestCompactionDropBelowResetIsFlagged(t *testing.T) {
	t.Parallel()
	dir, markers := buildMessyDir(t, false)
	res, err := Dir(dir, Config{KeepNewest: -1, DropBelowReset: true})
	if err != nil {
		t.Fatal(err)
	}
	// Monitor b was reset at horizon 12 (7 events at or below it:
	// 4..7, 10..12); monitor a at horizon 21 (9 events: 1..3, 16..21).
	if res.DroppedPreReset != 16 {
		t.Fatalf("DroppedPreReset = %d, want 16 (monitor a's 9 + monitor b's 7)", res.DroppedPreReset)
	}
	rep, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Events {
		if e.Monitor == "b" && e.Seq <= 12 {
			t.Fatalf("pre-reset event survived DropBelowReset: %+v", e)
		}
		if e.Monitor == "a" && e.Seq <= 21 {
			t.Fatalf("pre-reset event survived DropBelowReset: %+v", e)
		}
	}
	// The horizons themselves must survive — the markers are the record
	// that something was dropped.
	if !reflect.DeepEqual(rep.Markers, markers) {
		t.Fatalf("markers lost under DropBelowReset: %+v", rep.Markers)
	}
	// Monitor c was never reset: all 8 of its events survive.
	if got := len(rep.Events.ByMonitor("c")); got != 8 {
		t.Fatalf("untouched monitor lost events: %d of 8 left", got)
	}
}

func TestCompactionUpdatesIndex(t *testing.T) {
	t.Parallel()
	dir, _ := buildMessyDir(t, true)
	res, err := Dir(dir, Config{KeepNewest: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IndexUpdated {
		t.Fatalf("index not updated: %+v", res)
	}
	idx, err := index.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if errs := idx.Verify(dir); len(errs) != 0 {
		t.Fatalf("post-compaction index fails Verify: %v", errs)
	}
	names, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Files) != len(names) {
		t.Fatalf("index describes %d files, directory holds %d", len(idx.Files), len(names))
	}
	// And the windowed reader over the compacted, re-indexed directory
	// still prunes: monitor b lives only in the merged output, so the
	// untouched newest file (all monitor c) must be skipped.
	r, err := index.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReplayRange(0, 0, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Events); got != 10 {
		t.Fatalf("monitor-filtered replay returned %d events, want b's 10", got)
	}
	if st := r.LastStats(); st.Opened != 1 || st.FilesTotal != 2 {
		t.Fatalf("index did not prune after compaction: %+v", st)
	}
}

func TestCompactionRecoversFromInterruptedSwap(t *testing.T) {
	t.Parallel()
	// Simulate a crash between installing the merged output and
	// unlinking the inputs it replaced: duplicate the first file's
	// records by re-writing them into a later file. The reader must
	// collapse the duplicates, and a rerun of the compactor must
	// converge to the exact original stream.
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	seg := export.Segment{Monitor: "a", Events: tseq("a", 1, 5)}
	if err := sink.WriteSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 6, 9)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(seg); err != nil { // the "leftover input"
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 10, 11)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := export.ReadDir(dir)
	if err != nil {
		t.Fatalf("reader rejected duplicate records: %v", err)
	}
	if rep.DuplicateEvents != 5 {
		t.Fatalf("DuplicateEvents = %d, want 5", rep.DuplicateEvents)
	}
	if len(rep.Events) != 11 {
		t.Fatalf("deduped replay has %d events, want 11", len(rep.Events))
	}
	res, err := Dir(dir, Config{KeepNewest: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicatesDropped != 5 {
		t.Fatalf("DuplicatesDropped = %d, want 5", res.DuplicatesDropped)
	}
	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.DuplicateEvents != 0 || len(after.Events) != 11 {
		t.Fatalf("compaction did not converge: %d events, %d duplicates left",
			len(after.Events), after.DuplicateEvents)
	}
}

func TestExporterBackgroundCompactionEndToEnd(t *testing.T) {
	t.Parallel()
	// The full production wiring: WALSink with index maintenance and a
	// sealed-file compaction trigger, behind an exporter. Drive enough
	// segments through and the directory must end up compacted, indexed
	// and replay-identical.
	dir := filepath.Join(t.TempDir(), "run")
	m := index.NewMaintainer(dir)
	reg := obs.NewRegistry()
	sink, err := export.NewWALSink(dir, export.WALConfig{
		MaxFileBytes: 1, // rotate per record: worst-case backlog
		OnSeal:       []export.SealedSink{m},
		CompactEvery: 8,
		Compact: func(dir string) error {
			_, err := Dir(dir, Config{KeepNewest: 1})
			return err
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := export.New(sink, export.Config{Policy: export.Block})
	var want event.Seq
	seq := int64(1)
	for i := 0; i < 32; i++ {
		mon := []string{"a", "b"}[i%2]
		seg := tseq(mon, seq, seq+4)
		seq += 5
		want = append(want, seg...)
		exp.Consume(mon, seg)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("export_compactions_total").Value(); n == 0 {
		t.Fatal("no background compaction ran")
	}
	if n := reg.Counter("export_compact_errors_total").Value(); n != 0 {
		t.Fatalf("%d background compactions failed", n)
	}
	names, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) >= 32 {
		t.Fatalf("directory still holds %d files; the trigger never bounded the backlog", len(names))
	}
	rep, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, want), traceBytes(t, rep.Events)) {
		t.Fatalf("background compaction changed the stream: %d events, want %d", len(rep.Events), len(want))
	}
}

func TestZeroConfigNeverEatsTheActiveSegment(t *testing.T) {
	t.Parallel()
	// The zero-value Config must be safe against a LIVE directory: a
	// sink with an open, half-written active file. Compacting it with
	// Config{} while the sink keeps appending must lose nothing.
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := sink.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", i*5+1, i*5+5)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate-per-record leaves no open file; reopen one mid-append by
	// using a big threshold for the 5th segment's sink session.
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := export.NewWALSink(dir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", 21, 25)}); err != nil {
		t.Fatal(err)
	}
	if err := live.Flush(); err != nil { // durable but still open/active
		t.Fatal(err)
	}
	if _, err := Dir(dir, Config{}); err != nil {
		t.Fatal(err)
	}
	// The sink keeps writing to its (still linked!) active file.
	if err := live.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", 26, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 30 {
		t.Fatalf("replayed %d events, want all 30 — zero-value compaction touched the active segment", len(rep.Events))
	}
}

func TestMaintainerDoesNotResurrectCompactedEntries(t *testing.T) {
	t.Parallel()
	// A rotation AFTER a compaction must not write the maintainer's
	// earlier view of the index back over the compactor's: that view
	// still lists the merged-away inputs.
	dir := t.TempDir()
	m := index.NewMaintainer(dir)
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1, OnSeal: []export.SealedSink{m}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := sink.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", i*5+1, i*5+5)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Dir(dir, Config{}); err != nil {
		t.Fatal(err)
	}
	// One more rotation through the SAME maintainer.
	if err := sink.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", 21, 25)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	idx, err := index.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if errs := idx.Verify(dir); len(errs) != 0 {
		t.Fatalf("index disagrees with the directory after compact+rotate: %v", errs)
	}
	names, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Files) != len(names) {
		t.Fatalf("index lists %d files, directory holds %d — stale entries resurrected", len(idx.Files), len(names))
	}
}

func TestSinkResumesCleanlyAfterCompaction(t *testing.T) {
	t.Parallel()
	// Compacted files carry generation-suffixed names; a later sink
	// session must still resume numbering past everything and the mixed
	// directory must replay whole.
	dir, _ := buildMessyDir(t, false)
	if _, err := Dir(dir, Config{KeepNewest: -1}); err != nil {
		t.Fatal(err)
	}
	sink, err := export.NewWALSink(dir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "d", Events: tseq("d", 31, 35)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 35 || rep.DuplicateEvents != 0 {
		t.Fatalf("resumed directory replayed %d events (%d duplicates), want 35 clean",
			len(rep.Events), rep.DuplicateEvents)
	}
	// And a second compaction over the mixed generations still works.
	if _, err := Dir(dir, Config{KeepNewest: -1}); err != nil {
		t.Fatal(err)
	}
	rep, err = export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 35 {
		t.Fatalf("second-generation compaction lost events: %d of 35", len(rep.Events))
	}
}
