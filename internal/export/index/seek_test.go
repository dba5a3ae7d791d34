package index

import (
	"path/filepath"
	"testing"
	"time"

	"robustmon/internal/export"
	"robustmon/internal/history"
)

// TestSeekReaderOpensOnlyAdmittedFiles is the subsystem's acceptance
// criterion: a windowed query must fully read exactly the files its
// index admits — counted through the reader's file-read seam, not
// inferred — and still return precisely ReadDir's events for the
// window.
func TestSeekReaderOpensOnlyAdmittedFiles(t *testing.T) {
	t.Parallel()
	// 20 single-segment files, 10 events each, monitors a/b
	// alternating: seqs 1..200, with a's events in files 1,3,5,…
	dir := buildDir(t, []string{"a", "b"}, 20, 10)
	full, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var opened []string
	inner := r.readFile
	r.readFile = func(name string) (*export.FileReplay, error) {
		opened = append(opened, filepath.Base(name))
		return inner(name)
	}

	// A window spanning seqs 95..125 touches files 10..13 and nothing
	// else.
	rep, err := r.ReplayRange(95, 125)
	if err != nil {
		t.Fatal(err)
	}
	if want := full.Events.SubSeq(95, 125); len(rep.Events) != len(want) {
		t.Fatalf("windowed replay returned %d events, ReadDir's window has %d", len(rep.Events), len(want))
	} else {
		for i := range want {
			if rep.Events[i] != want[i] {
				t.Fatalf("windowed replay event %d = %+v, want %+v", i, rep.Events[i], want[i])
			}
		}
	}
	if len(opened) != 4 {
		t.Fatalf("query opened %d files (%v), the window needs exactly 4", len(opened), opened)
	}
	st := r.LastStats()
	if st.FilesTotal != 20 || st.Opened != 4 || st.Skipped != 16 || st.Unindexed != 0 {
		t.Fatalf("stats = %+v, want 4 of 20 opened, 16 skipped, all indexed", st)
	}

	// Adding a monitor filter must prune further: monitor "a" only
	// lives in the odd files, so 2 of the 4 window files remain.
	opened = nil
	rep, err = r.ReplayRange(95, 125, "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Events {
		if e.Monitor != "a" {
			t.Fatalf("monitor filter leaked event %+v", e)
		}
	}
	if len(opened) != 2 {
		t.Fatalf("filtered query opened %d files (%v), want 2", len(opened), opened)
	}
}

func TestSeekReaderScansUnindexedFiles(t *testing.T) {
	t.Parallel()
	// Build an indexed directory, then append one more (unindexed)
	// sink session: the reader must scan the new file even though the
	// index knows nothing about it — the index can over-admit, never
	// under-admit.
	dir := buildDir(t, []string{"a"}, 3, 10) // seqs 1..30, indexed
	sink, err := export.NewWALSink(dir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 31, 40)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReplayRange(35, 38)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 4 || rep.Events[0].Seq != 35 {
		t.Fatalf("window over the unindexed file returned %d events", len(rep.Events))
	}
	st := r.LastStats()
	if st.Unindexed != 1 || st.Opened != 1 || st.Skipped != 3 {
		t.Fatalf("stats = %+v, want the 1 unindexed file opened and the 3 indexed ones skipped", st)
	}
}

func TestSeekReaderWithoutIndexScansEverything(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := sink.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", i*5+1, i*5+5)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReplayRange(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 5 || rep.Events[0].Seq != 6 {
		t.Fatalf("index-less window returned %d events", len(rep.Events))
	}
	if st := r.LastStats(); st.Opened != 3 || st.Unindexed != 3 {
		t.Fatalf("stats = %+v, want every file scanned without an index", st)
	}
}

func TestSeekReaderMarkerPointReads(t *testing.T) {
	t.Parallel()
	// A marker in a file whose segments fall outside the window must
	// still reach the replay — through its indexed offset, without the
	// file being decoded.
	dir := t.TempDir()
	m := NewMaintainer(dir)
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1, OnSeal: []export.SealedSink{m}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 1, 10)}); err != nil {
		t.Fatal(err)
	}
	mk := history.RecoveryMarker{Monitor: "a", Horizon: 10, Dropped: 4, Rule: "ST-5", Pid: 2,
		At: time.Date(2001, 7, 3, 0, 0, 0, 0, time.UTC)}
	if err := sink.WriteMarker(mk); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 11, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var opened int
	inner := r.readFile
	r.readFile = func(name string) (*export.FileReplay, error) {
		opened++
		return inner(name)
	}
	rep, err := r.ReplayRange(15, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 6 {
		t.Fatalf("window returned %d events, want 6", len(rep.Events))
	}
	if len(rep.Markers) != 1 || rep.Markers[0] != mk {
		t.Fatalf("marker not point-read into the window replay: %+v", rep.Markers)
	}
	st := r.LastStats()
	if opened != 1 || st.AnnotationReads != 1 {
		t.Fatalf("opened=%d stats=%+v, want 1 full read + 1 marker point-read", opened, st)
	}
}
