package export

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"robustmon/internal/obs"
)

// TestRecordCodecByteIdenticalToWAL: encoding a record with the
// standalone codec must produce exactly the bytes WALSink puts on
// disk for the same record — the property fleet replication rests on.
// One encoder exists structurally (appendRecordHeader + the payload
// codecs), but this pins it against refactors that fork the paths.
func TestRecordCodecByteIdenticalToWAL(t *testing.T) {
	t.Parallel()
	seg := Segment{Monitor: "a", Events: tseq("a", 1, 5)}
	marker := historyMarkerSeed()
	health := healthRecordSeed()

	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteMarker(marker); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(health); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("walFiles = %v, %v; want one file", names, err)
	}
	disk, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}

	var wire []byte
	wire = append(wire, walMagicPrefix[:]...)
	wire = append(wire, walVersionLatest)
	if wire, err = AppendSegmentRecord(wire, seg); err != nil {
		t.Fatal(err)
	}
	if wire, err = AppendRecord(wire, Record{Marker: &marker}); err != nil {
		t.Fatal(err)
	}
	if wire, err = AppendRecord(wire, Record{Health: &health}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, wire) {
		t.Fatalf("standalone codec diverged from the WAL writer:\n disk %d bytes\n wire %d bytes", len(disk), len(wire))
	}
}

// TestRecordRoundTrip: for every record kind, AppendRecord →
// DecodeRecord is the identity, Apply routes the record to its kind's
// sink method, and the record a WALSink wrote is located by ScanFile
// and point-read back by ReadRecordAt.
func TestRecordRoundTrip(t *testing.T) {
	t.Parallel()
	alert := testAlert(42, true)
	alert.At = alert.At.UTC() // decoded instants are UTC
	records := []Record{
		{Segment: &Segment{Monitor: "m1", Events: tseq("m1", 3, 9)}},
		{Marker: ptr(historyMarkerSeed())},
		{Health: ptr(healthRecordSeed())},
		{Tombstone: &Tombstone{Horizon: 10, Events: 9, Records: 3, Files: 1,
			Monitors: []TruncatedRange{{Monitor: "a", MinSeq: 1, MaxSeq: 9, Events: 9}},
			At:       time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)}},
		{Alert: &alert},
	}
	mem := &MemorySink{}
	dir := t.TempDir()
	wal, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range records {
		b, err := AppendRecord(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		f, err := EncodeFrame(want)
		if err != nil || !bytes.Equal(*f, b) {
			t.Fatalf("EncodeFrame = %x, %v; want AppendRecord's %x", *f, err, b)
		}
		PutFrame(f)
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("DecodeRecord: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record round trip changed it:\n got %+v\nwant %+v", got, want)
		}
		if err := got.Apply(mem); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if err := got.Apply(wal); err != nil {
			t.Fatalf("Apply to a WALSink: %v", err)
		}
	}
	if len(mem.Segments()) != 1 || len(mem.Markers()) != 1 || len(mem.Healths()) != 1 ||
		len(mem.Tombstones()) != 1 || len(mem.Alerts()) != 1 {
		t.Fatalf("Apply stored %d/%d/%d/%d/%d records, want 1 of each kind", len(mem.Segments()),
			len(mem.Markers()), len(mem.Healths()), len(mem.Tombstones()), len(mem.Alerts()))
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("walFiles = %v, %v; want one file", names, err)
	}
	fs, locs, err := ScanFileRecords(names[0])
	if err != nil || len(locs) != 1 || len(fs.Annotations) != len(records)-1 {
		t.Fatalf("scan: %d segments, %d annotations, err %v; want 1 and %d", len(locs), len(fs.Annotations), err, len(records)-1)
	}
	offsets := []int64{locs[0].Offset}
	for i, a := range fs.Annotations {
		if want := records[i+1].Info(); a.Kind != want.Kind || a.Monitor != want.Monitor || a.Horizon != want.Horizon {
			t.Fatalf("annotation %d indexed as %+v, want %+v", i, a, want)
		}
		offsets = append(offsets, a.Offset)
	}
	for i, off := range offsets {
		got, err := ReadRecordAt(names[0], off)
		if err != nil {
			t.Fatalf("ReadRecordAt(%d): %v", off, err)
		}
		if !reflect.DeepEqual(got, records[i]) {
			t.Fatalf("point read at %d:\n got %+v\nwant %+v", off, got, records[i])
		}
	}

	// Trailing bytes, truncation and emptiness are all errors.
	b, err := AppendRecord(nil, records[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(append(b, 0)); err == nil {
		t.Fatal("DecodeRecord accepted trailing bytes")
	}
	if _, err := DecodeRecord(b[:len(b)-1]); err == nil {
		t.Fatal("DecodeRecord accepted a truncated record")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("DecodeRecord accepted empty input")
	}
	if _, err := AppendRecord(nil, Record{}); err == nil {
		t.Fatal("AppendRecord accepted an empty record")
	}
	if err := (Record{}).Apply(mem); err == nil {
		t.Fatal("Apply accepted an empty record")
	}
}

func ptr[T any](v T) *T { return &v }

// TestWriteEncodedAllocatesNothing: once the current file holds a
// segment of a monitor, storing a received segment record of it
// allocates nothing: the header is parsed in place and its monitor
// name taken from the file's summary.
func TestWriteEncodedAllocatesNothing(t *testing.T) {
	sink, err := NewWALSink(t.TempDir(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendSegmentRecord(nil, Segment{Monitor: "m", Events: tseq("m", 1, 64)})
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		if _, err := sink.WriteEncoded(b); err != nil {
			t.Fatal(err)
		}
	}
	write() // opens the file and names the monitor
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Fatalf("WriteEncoded allocated %v times per record, want 0", n)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALOnSealFanOut: every OnSeal consumer sees every seal in
// order, an erroring consumer never starves the ones after it, and
// the error is routed to OnSealError and counted — while the write
// path stays oblivious.
func TestWALOnSealFanOut(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	var first, second []FileSummary
	var reported []error
	boom := errors.New("boom")
	sink, err := NewWALSink(t.TempDir(), WALConfig{
		MaxFileBytes: 1, // rotate after every record
		Obs:          reg,
		OnSealError:  func(err error) { reported = append(reported, err) },
		OnSeal: []SealedSink{
			SealedSinkFunc(func(fs FileSummary) error {
				first = append(first, fs)
				return boom
			}),
			nil, // tolerated, skipped
			SealedSinkFunc(func(fs FileSummary) error {
				second = append(second, fs)
				return nil
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := sink.WriteSegment(Segment{Monitor: "a", Events: tseq("a", 3*i+1, 3*i+3)}); err != nil {
			t.Fatalf("write %d: the erroring seal consumer leaked into the write path: %v", i, err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("fan-out fed consumers %d and %d seals, want 3 each", len(first), len(second))
	}
	for i := range first {
		if first[i].Name != second[i].Name {
			t.Fatalf("seal %d: consumers saw different files %q vs %q", i, first[i].Name, second[i].Name)
		}
	}
	if len(reported) != 3 {
		t.Fatalf("OnSealError reported %d errors, want 3", len(reported))
	}
	for _, err := range reported {
		if !errors.Is(err, boom) {
			t.Fatalf("OnSealError got %v, want the consumer's error", err)
		}
	}
	if v, _ := reg.Snapshot().Counter("export_wal_seal_errors_total"); v != 3 {
		t.Fatalf("export_wal_seal_errors_total = %d, want 3", v)
	}
}

// TestTeeSink: every record reaches every capable sink, markers and
// health snapshots skip sinks without the extension, and one sink's
// error doesn't stop delivery to the others.
func TestTeeSink(t *testing.T) {
	t.Parallel()
	a, b := &MemorySink{}, &MemorySink{}
	plain := &countingSegSink{}
	failing := &teeFailSink{}
	tee := NewTeeSink(a, nil, plain, failing, b)

	seg := Segment{Monitor: "m", Events: tseq("m", 1, 2)}
	if err := tee.WriteSegment(seg); err == nil {
		t.Fatal("WriteSegment swallowed the failing sink's error")
	}
	if err := tee.WriteMarker(historyMarkerSeed()); err != nil {
		t.Fatalf("WriteMarker: %v", err)
	}
	if err := tee.WriteHealth(healthRecordSeed()); err != nil {
		t.Fatalf("WriteHealth: %v", err)
	}
	if err := tee.Flush(); err == nil {
		t.Fatal("Flush swallowed the failing sink's error")
	}
	if err := tee.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for name, m := range map[string]*MemorySink{"a": a, "b": b} {
		if len(m.Segments()) != 1 || len(m.Markers()) != 1 || len(m.Healths()) != 1 {
			t.Fatalf("sink %s got %d/%d/%d records, want 1 of each kind",
				name, len(m.Segments()), len(m.Markers()), len(m.Healths()))
		}
	}
	if plain.segments != 1 {
		t.Fatalf("segment-only sink got %d segments, want 1", plain.segments)
	}
}

// countingSegSink implements only the base Sink interface — the tee
// must route segments to it and silently skip markers/health.
type countingSegSink struct{ segments int }

func (s *countingSegSink) WriteSegment(Segment) error { s.segments++; return nil }
func (s *countingSegSink) Flush() error               { return nil }
func (s *countingSegSink) Close() error               { return nil }

// teeFailSink errors on the segment path and Flush but not Close.
type teeFailSink struct{}

func (s *teeFailSink) WriteSegment(Segment) error { return fmt.Errorf("tee: disk on fire") }
func (s *teeFailSink) Flush() error               { return fmt.Errorf("tee: still on fire") }
func (s *teeFailSink) Close() error               { return nil }
