package export

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	"robustmon/internal/proc"
)

// writeWAL writes the given segments through a WALSink and returns the
// directory.
func writeWAL(t *testing.T, cfg WALConfig, segs ...Segment) string {
	t.Helper()
	dir := t.TempDir()
	sink, err := NewWALSink(dir, cfg)
	if err != nil {
		t.Fatalf("NewWALSink: %v", err)
	}
	for _, s := range segs {
		if err := sink.WriteSegment(s); err != nil {
			t.Fatalf("WriteSegment: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

func TestWALRoundTripMergesGlobalOrder(t *testing.T) {
	t.Parallel()
	// Interleaved drains from three monitors, deliberately written out
	// of global order across records — the reader's merge must restore
	// <L. Tiny MaxFileBytes forces rotation after every record, so the
	// trace also spans several files.
	dir := writeWAL(t, WALConfig{MaxFileBytes: 1},
		Segment{Monitor: "b", Events: event.Seq{tev("b", 2), tev("b", 4)}},
		Segment{Monitor: "a", Events: event.Seq{tev("a", 1), tev("a", 3)}},
		Segment{Monitor: "c", Events: event.Seq{tev("c", 5)}},
		Segment{Monitor: "a", Events: event.Seq{tev("a", 6), tev("a", 7)}},
	)
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if rep.Recovered {
		t.Fatal("clean WAL reported Recovered")
	}
	if rep.Segments != 4 || rep.Files != 4 {
		t.Fatalf("Replay = %d segments in %d files, want 4 in 4 (rotate-per-record)", rep.Segments, rep.Files)
	}
	if err := rep.Events.Validate(); err != nil {
		t.Fatalf("replayed trace invalid: %v", err)
	}
	if len(rep.Events) != 7 || rep.Events[0].Seq != 1 || rep.Events[6].Seq != 7 {
		t.Fatalf("replayed %d events (first %d, last %d), want 1..7 in order",
			len(rep.Events), rep.Events[0].Seq, rep.Events[len(rep.Events)-1].Seq)
	}
}

func TestWALResumesNumberingWithoutClobbering(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for i := int64(0); i < 2; i++ {
		sink, err := NewWALSink(dir, WALConfig{})
		if err != nil {
			t.Fatalf("NewWALSink #%d: %v", i, err)
		}
		if err := sink.WriteSegment(Segment{Monitor: "m", Events: tseq("m", i*3+1, i*3+3)}); err != nil {
			t.Fatalf("WriteSegment #%d: %v", i, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i, err)
		}
	}
	names, err := walFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %d wal files after two sink sessions, want 2", len(names))
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(rep.Events) != 6 {
		t.Fatalf("replayed %d events across sessions, want 6", len(rep.Events))
	}
}

func TestWALCrashTruncatedTailRecovers(t *testing.T) {
	t.Parallel()
	// Cut the newest file at every possible torn-write length and check
	// the reader always recovers exactly the records before the tear.
	full := writeWAL(t, WALConfig{},
		Segment{Monitor: "a", Events: tseq("a", 1, 4)},
		Segment{Monitor: "a", Events: tseq("a", 5, 8)},
	)
	names, err := walFiles(full)
	if err != nil || len(names) != 1 {
		t.Fatalf("walFiles = %v, %v", names, err)
	}
	blob, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find the boundary of the first record by reading a one-record WAL.
	oneRec := writeWAL(t, WALConfig{}, Segment{Monitor: "a", Events: tseq("a", 1, 4)})
	oneNames, _ := walFiles(oneRec)
	one, err := os.ReadFile(oneNames[0])
	if err != nil {
		t.Fatal(err)
	}
	boundary := len(one)

	for cut := boundary; cut < len(blob); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), blob[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("cut=%d: ReadDir: %v", cut, err)
		}
		wantRecovered := cut != boundary // a cut exactly at the boundary is a clean EOF
		if rep.Recovered != wantRecovered {
			t.Fatalf("cut=%d: Recovered = %v, want %v", cut, rep.Recovered, wantRecovered)
		}
		if len(rep.Events) != 4 || rep.Events[3].Seq != 4 {
			t.Fatalf("cut=%d: recovered %d events, want the 4 of the intact record", cut, len(rep.Events))
		}
		if wantRecovered && rep.TruncatedFile == "" {
			t.Fatalf("cut=%d: TruncatedFile not set", cut)
		}
	}
}

func TestWALTruncationInOlderFileIsCorruption(t *testing.T) {
	t.Parallel()
	dir := writeWAL(t, WALConfig{MaxFileBytes: 1}, // rotate per record → 2 files
		Segment{Monitor: "a", Events: tseq("a", 1, 3)},
		Segment{Monitor: "a", Events: tseq("a", 4, 6)},
	)
	names, err := walFiles(dir)
	if err != nil || len(names) != 2 {
		t.Fatalf("walFiles = %v, %v", names, err)
	}
	blob, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(names[0], blob[:len(blob)-3], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("ReadDir accepted a truncated non-newest file")
	}
}

func TestWALCRCMismatchSkipsOnlyThatRecord(t *testing.T) {
	t.Parallel()
	// A CRC-corrupt record mid-file is localised damage, not a torn
	// tail: the reader must skip it, count it, and keep reading the
	// intact records after it — losing one record's events, never the
	// rest of the file.
	dir := writeWAL(t, WALConfig{},
		Segment{Monitor: "a", Events: tseq("a", 1, 3)},
		Segment{Monitor: "a", Events: tseq("a", 4, 6)},
		Segment{Monitor: "b", Events: tseq("b", 7, 9)},
	)
	names, _ := walFiles(dir)
	blob, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit well inside the first record's payload (past the file
	// magic and record header) so two intact records follow a corrupt —
	// not torn — one.
	blob[40] ^= 0x01
	if err := os.WriteFile(names[0], blob, 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir abandoned the file over one corrupt record: %v", err)
	}
	if rep.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", rep.CorruptRecords)
	}
	if rep.Recovered {
		t.Fatal("a corrupt record is not a crash tail; Recovered must stay false")
	}
	if rep.Segments != 2 || len(rep.Events) != 6 {
		t.Fatalf("replayed %d segments / %d events, want the 2 intact records' 6 events", rep.Segments, len(rep.Events))
	}
	if rep.Events[0].Seq != 4 || rep.Events[5].Seq != 9 {
		t.Fatalf("surviving events span %d..%d, want 4..9 (the corrupt record's 1..3 dropped)",
			rep.Events[0].Seq, rep.Events[5].Seq)
	}
}

func TestWALAgeBasedRotation(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC))
	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{
		RotateEvery: time.Minute,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(Segment{Monitor: "m", Events: tseq("m", 1, 2)}); err != nil {
		t.Fatal(err)
	}
	// Within the age window: same file keeps growing.
	clk.Advance(30 * time.Second)
	if err := sink.WriteSegment(Segment{Monitor: "m", Events: tseq("m", 3, 4)}); err != nil {
		t.Fatal(err)
	}
	if got := sink.sealedFiles(); got != 0 {
		t.Fatalf("sealedFiles = %d before the age threshold, want 0", got)
	}
	// Past the threshold: the next write seals the stale file first and
	// lands in a fresh one — an idle monitor's trickle cannot pin one
	// open file forever.
	clk.Advance(time.Hour)
	if err := sink.WriteSegment(Segment{Monitor: "m", Events: tseq("m", 5, 6)}); err != nil {
		t.Fatal(err)
	}
	if got := sink.sealedFiles(); got != 1 {
		t.Fatalf("sealedFiles = %d after an age rotation, want 1", got)
	}
	// A stale file is sealed by Flush too, not only by the next write.
	clk.Advance(time.Hour)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sink.sealedFiles(); got != 2 {
		t.Fatalf("sealedFiles = %d after a stale Flush, want 2", got)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 2 {
		t.Fatalf("walFiles = %v, %v; want 2 files", names, err)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(rep.Events) != 6 {
		t.Fatalf("replayed %d events across age-rotated files, want 6", len(rep.Events))
	}
}

// TestWALCompactTrigger pins the sink's one background-compaction
// launcher: no pass below CompactEvery sealed files, exactly one at
// it, none while a pass is in flight, the floor re-based to what the
// finished pass left, and a Close that seals without launching and
// waits for the pass in flight.
func TestWALCompactTrigger(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC))
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// Buffered, so a pass launched by mistake fails an expectation
	// below instead of hanging the test.
	started := make(chan struct{}, 1)
	release := make(chan struct{}, 1)
	var finished atomic.Int64
	cfg := WALConfig{
		RotateEvery:  time.Minute,
		Clock:        clk,
		CompactEvery: 2,
		Compact: func(got string) error {
			if got != dir {
				t.Errorf("pass ran on %q, want the sink's directory %q", got, dir)
			}
			started <- struct{}{}
			<-release
			finished.Add(1)
			return nil
		},
		Obs: reg,
	}
	sink, err := NewWALSink(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	passes := reg.Counter("export_compactions_total")
	seq := int64(1)
	write := func() {
		t.Helper()
		if err := sink.WriteSegment(Segment{Monitor: "m", Events: tseq("m", seq, seq+1)}); err != nil {
			t.Fatal(err)
		}
		seq += 2
	}
	// seal writes one segment into a fresh file and seals it through a
	// stale Flush: one more sealed file per call.
	seal := func() {
		t.Helper()
		write()
		clk.Advance(time.Hour)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// A launch is counted before its goroutine starts, so the counter
	// is exact as soon as the sealing call returns.
	expect := func(step string, want int64) {
		t.Helper()
		if got := passes.Value(); got != want {
			t.Fatalf("%s: %d passes launched, want %d", step, got, want)
		}
	}

	seal()
	expect("1 sealed file", 0)
	seal()
	expect("2 sealed files", 1)
	<-started
	seal()
	seal()
	expect("2 more seals with the pass in flight", 1)
	release <- struct{}{}
	sink.compactWG.Wait()

	// The pass left all 4 files: the first seal after it re-bases the
	// floor to 4, so the pass launches at the 6th file, not the 5th.
	seal()
	expect("1 file on top of the floor", 1)
	seal()
	expect("2 files on top of the floor", 2)
	<-started
	release <- struct{}{}
	sink.compactWG.Wait()

	// The floor is 6 now; the 7th file sealed here and the 8th sealed
	// by Close would reach the threshold, but Close never launches. The
	// token left in release is for a pass launched by mistake.
	seal()
	write()
	release <- struct{}{}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	expect("Close", 2)
	<-release
	if names, err := walFiles(dir); err != nil || len(names) != 8 {
		t.Fatalf("walFiles = %d names, %v; want 8 sealed files", len(names), err)
	}

	// Close waits for the pass in flight, here one the explicit
	// launcher started: Close's own seal releases it, so only a Close
	// that waits sees it finished.
	cfg.OnSeal = []SealedSink{SealedSinkFunc(func(FileSummary) error {
		release <- struct{}{}
		return nil
	})}
	sink, err = NewWALSink(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink.Compact(cfg.Compact)
	<-started
	expect("explicit launch", 3)
	write()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := finished.Load(); got != 3 {
		t.Fatalf("Close returned with %d passes finished, want all 3", got)
	}
}

func TestWALOnRotateSummariesMatchScan(t *testing.T) {
	t.Parallel()
	// The sink's incrementally built summaries and ScanFile's header
	// scan are two producers of the same FileSummary; they must agree
	// exactly, or a sink-maintained index would diverge from a rebuilt
	// one.
	dir := t.TempDir()
	var sealed []FileSummary
	sink, err := NewWALSink(dir, WALConfig{
		MaxFileBytes: 1, // rotate after every record
		OnSeal: []SealedSink{SealedSinkFunc(func(fs FileSummary) error {
			sealed = append(sealed, fs)
			return nil
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(Segment{Monitor: "a", Events: tseq("a", 1, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteMarker(historyMarkerSeed()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 2 {
		t.Fatalf("walFiles = %v, %v; want 2 files", names, err)
	}
	if len(sealed) != 2 {
		t.Fatalf("OnSeal fired %d times, want 2", len(sealed))
	}
	for i, name := range names {
		scanned, err := ScanFile(name)
		if err != nil {
			t.Fatalf("ScanFile(%s): %v", name, err)
		}
		if !reflect.DeepEqual(sealed[i], scanned) {
			t.Fatalf("file %s: sink summary %+v != scanned summary %+v", name, sealed[i], scanned)
		}
	}
	seg := sealed[0]
	if seg.Events != 4 || seg.MinSeq != 1 || seg.MaxSeq != 4 || len(seg.Monitors) != 1 {
		t.Fatalf("segment-file summary wrong: %+v", seg)
	}
	mk := sealed[1]
	if mk.Events != 0 || len(mk.Annotations) != 1 || mk.Annotations[0].Kind != KindMarker ||
		mk.Annotations[0].Horizon != historyMarkerSeed().Horizon {
		t.Fatalf("marker-file summary wrong: %+v", mk)
	}
}

// TestReplayMatchesFullTraceExport is the subsystem's acceptance
// criterion: the same HoldWorld workload is recorded twice at once —
// through WithFullTrace (the memory-unbounded baseline) and through
// the detector-fed exporter — and replaying the exporter's on-disk
// segments must be byte-identical to event.WriteBinary of the full
// trace.
func TestReplayMatchesFullTraceExport(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{MaxFileBytes: 4 << 10}) // several rotations
	if err != nil {
		t.Fatal(err)
	}
	exp := New(sink, Config{Policy: Block})

	db := history.New(history.WithFullTrace())
	const monitors = 4
	mons := make([]*monitor.Monitor, monitors)
	for i := range mons {
		spec := monitor.Spec{
			Name:       "m" + string(rune('A'+i)),
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
		Tmax:      time.Hour,
		Tio:       time.Hour,
		HoldWorld: true,
		Exporter:  exp,
	}, mons...)

	rt := proc.NewRuntime()
	for _, m := range mons {
		m := m
		for w := 0; w < 2; w++ {
			rt.Spawn("driver", func(p *proc.P) {
				for j := 0; j < 200; j++ {
					if err := m.Enter(p, "Op"); err != nil {
						return
					}
					_ = m.Exit(p, "Op")
					if j%50 == 25 {
						det.CheckNow() // mid-run checkpoints stream segments out
					}
				}
			})
		}
	}
	rt.Join()
	if vs := det.CheckNow(); len(vs) != 0 {
		t.Fatalf("fault-free workload reported violations: %v", vs)
	}
	if err := exp.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := exp.Stats()
	if st.DroppedSegments != 0 {
		t.Fatalf("Block-policy exporter dropped segments: %+v", st)
	}

	var want bytes.Buffer
	if err := event.WriteBinary(&want, db.Full()); err != nil {
		t.Fatalf("WriteBinary(full trace): %v", err)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if rep.Recovered {
		t.Fatal("clean run reported Recovered")
	}
	var got bytes.Buffer
	if err := event.WriteBinary(&got, rep.Events); err != nil {
		t.Fatalf("WriteBinary(replay): %v", err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("replayed export differs from WithFullTrace export: %d vs %d bytes, %d vs %d events",
			got.Len(), want.Len(), len(rep.Events), int(db.Total()))
	}
}
