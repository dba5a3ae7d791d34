package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"robustmon/internal/export"
	"robustmon/internal/obs"
)

// th builds a test health snapshot at the given sequence horizon, with
// enough registry content (a counter, a gauge, a histogram) that a
// codec slip could not round-trip by accident.
func th(seq int64) obs.HealthRecord {
	return obs.HealthRecord{
		At:  time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second),
		Seq: seq,
		Metrics: obs.Snapshot{
			Counters: []obs.Metric{{Name: "history_append_total", Value: seq * 3}},
			Gauges:   []obs.Metric{{Name: "export_queue_depth", Value: 2}},
			Histograms: []obs.HistogramSnapshot{{
				Name: "detect_check_ns", Count: 8, Sum: 4096,
				Buckets: []obs.Bucket{{Index: 9, Count: 8}},
			}},
		},
	}
}

// buildHealthDir writes an indexed directory interleaving health
// snapshots with segments, one record per file (MaxFileBytes 1):
//
//	file 1: health seq 0   (horizon-0 anchor, before any event)
//	file 2: segment a 1..10
//	file 3: health seq 10
//	file 4: segment a 11..20
//	file 5: health seq 20
//	file 6: segment a 21..30
func buildHealthDir(t *testing.T) (dir string, healths []obs.HealthRecord) {
	t.Helper()
	dir = t.TempDir()
	m := NewMaintainer(dir)
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1, OnSeal: []export.SealedSink{m}})
	if err != nil {
		t.Fatal(err)
	}
	healths = []obs.HealthRecord{th(0), th(10), th(20)}
	if err := sink.WriteHealth(healths[0]); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(healths[1]); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 11, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(healths[2]); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 21, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("maintainer: %v", err)
	}
	return dir, healths
}

func TestIndexRecordsHealthOffsets(t *testing.T) {
	t.Parallel()
	dir, healths := buildHealthDir(t)
	maintained, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(maintained.Files) != 6 {
		t.Fatalf("index holds %d files, want 6", len(maintained.Files))
	}
	var got []export.AnnotationInfo
	for _, f := range maintained.Files {
		if len(f.Annotations) > 0 && f.Events != 0 {
			t.Fatalf("file %s mixes healths and events in this fixture: %+v", f.Name, f)
		}
		got = append(got, f.Annotations...)
	}
	if len(got) != len(healths) {
		t.Fatalf("index records %d health entries, want %d", len(got), len(healths))
	}
	for i, a := range got {
		if a.Kind != export.KindHealth || a.Horizon != healths[i].Seq {
			t.Fatalf("entry %d is a %s at seq %d, want a health snapshot at %d", i, a.Kind, a.Horizon, healths[i].Seq)
		}
	}

	// The sink-maintained table and a from-scratch rebuild must agree —
	// OnSeal's incremental summary and ScanFile's header scan are two
	// producers of the same truth, health offsets included.
	rebuilt, err := Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(maintained, rebuilt) {
		t.Fatalf("maintained index != rebuilt index:\n%+v\nvs\n%+v", maintained, rebuilt)
	}

	// The codec round-trips the annotation table.
	re, err := decode(maintained.encode())
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if !reflect.DeepEqual(maintained, re) {
		t.Fatalf("encode/decode changed the index:\n%+v\nvs\n%+v", maintained, re)
	}
	if errs := maintained.Verify(dir); len(errs) != 0 {
		t.Fatalf("Verify: %v", errs)
	}
}

// encodeV4 serialises an index in format version 4 — one table per
// annotation kind, as every release before the single annotation table
// wrote.
func encodeV4(x *Index) []byte {
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	buf.WriteByte(4)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { buf.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	putVarint := func(v int64) { buf.Write(scratch[:binary.PutVarint(scratch[:], v)]) }
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	putUvarint(uint64(len(x.Files)))
	for _, f := range x.Files {
		putString(f.Name)
		buf.WriteByte(f.Version)
		buf.WriteByte(0)
		putVarint(f.Size)
		putUvarint(uint64(f.Records))
		putVarint(f.Events)
		putVarint(f.MinSeq)
		putVarint(f.MaxSeq)
		putUvarint(uint64(f.HeaderCRC))
		putUvarint(uint64(len(f.Monitors)))
		for _, mr := range f.Monitors {
			putString(mr.Monitor)
			putVarint(mr.MinSeq)
			putVarint(mr.MaxSeq)
			putVarint(mr.Events)
		}
		for _, k := range []export.Kind{export.KindMarker, export.KindHealth, export.KindTombstone, export.KindAlert} {
			var of []export.AnnotationInfo
			for _, a := range f.Annotations {
				if a.Kind == k {
					of = append(of, a)
				}
			}
			putUvarint(uint64(len(of)))
			for _, a := range of {
				if k == export.KindMarker {
					putString(a.Monitor)
				}
				putVarint(a.Horizon)
				putVarint(a.Offset)
			}
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(scratch[:4])
	return buf.Bytes()
}

// TestIndexOfOtherVersionReadsAsAbsent: an intact index written by an
// older release is not decoded but treated as absent — Load reports
// ErrNoIndex, OpenDir scans every file and replays exactly what ReadDir
// does, and the next seal rewrites the index at the current version.
func TestIndexOfOtherVersionReadsAsAbsent(t *testing.T) {
	t.Parallel()
	dir, _ := buildHealthDir(t)
	idx, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FileName), encodeV4(idx), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("Load of a v4 index = %v, want ErrNoIndex", err)
	}
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir over a v4 index: %v", err)
	}
	got, err := r.ReplayRange(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.LastStats(); st.Unindexed != st.FilesTotal || st.Opened != st.FilesTotal {
		t.Fatalf("stats = %+v, want every file scanned", st)
	}
	want, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay over a v4 index diverged from ReadDir:\n%+v\nvs\n%+v", got, want)
	}

	m := NewMaintainer(dir)
	sink, err := export.NewWALSink(dir, export.WALConfig{OnSeal: []export.SealedSink{m}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 31, 40)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != indexVersion {
		t.Fatalf("OnSeal left an index of version %d, want %d", raw[4], indexVersion)
	}
	if rewritten, err := Load(dir); err != nil || len(rewritten.Files) != 1 {
		t.Fatalf("rewritten index: %v, err %v; want the newly sealed file", rewritten, err)
	}
}

func TestSeekReaderHealthPointReads(t *testing.T) {
	t.Parallel()
	dir, healths := buildHealthDir(t)
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

	// Full replay: every snapshot, in horizon order.
	rep, err := r.ReplayRange(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Healths, healths) {
		t.Fatalf("full replay healths:\n%+v\nwant\n%+v", rep.Healths, healths)
	}
	if len(rep.Events) != 30 {
		t.Fatalf("full replay returned %d events, want 30", len(rep.Events))
	}

	// A mid-trace window admits only the snapshots whose horizon falls
	// inside it, and collects them from skipped files by point read —
	// the health-only file holding seq 10 must not be decoded.
	opened = nil
	rep, err = r.ReplayRange(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Healths) != 1 || rep.Healths[0].Seq != 10 {
		t.Fatalf("window [5,12] healths = %+v, want only seq 10", rep.Healths)
	}
	if !reflect.DeepEqual(rep.Healths[0], healths[1]) {
		t.Fatalf("point-read snapshot diverged:\n%+v\nwant\n%+v", rep.Healths[0], healths[1])
	}
	if len(opened) != 2 {
		t.Fatalf("window [5,12] opened %v, want only the two segment files", opened)
	}
	st := r.LastStats()
	if st.AnnotationReads != 1 {
		t.Fatalf("stats = %+v, want exactly 1 health point-read", st)
	}

	// A from-the-beginning window also admits the horizon-0 anchor —
	// the snapshot captured before the first event belongs to any query
	// that starts at the start.
	rep, err = r.ReplayRange(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Healths) != 1 || rep.Healths[0].Seq != 0 {
		t.Fatalf("window [0,5] healths = %+v, want only the horizon-0 anchor", rep.Healths)
	}
	// …and a window that starts later excludes it.
	rep, err = r.ReplayRange(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Healths) != 0 {
		t.Fatalf("window [2,5] healths = %+v, want none", rep.Healths)
	}

	// Health snapshots are per-process: a monitor filter that matches
	// no events still yields the window's timeline.
	rep, err = r.ReplayRange(5, 12, "no-such-monitor")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 0 || len(rep.Healths) != 1 || rep.Healths[0].Seq != 10 {
		t.Fatalf("filtered window: events=%d healths=%+v, want 0 events and the seq-10 snapshot",
			len(rep.Events), rep.Healths)
	}
}
