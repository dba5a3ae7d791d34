package export

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/history"
)

// historyMarkerSeed is the reference marker used by tests and the fuzz
// seed corpus.
func historyMarkerSeed() history.RecoveryMarker {
	return history.RecoveryMarker{
		Monitor: "mon03",
		Horizon: 4217,
		Dropped: 12,
		Rule:    "ST-R",
		Pid:     7,
		At:      time.Date(2001, 7, 1, 12, 30, 0, 250, time.UTC),
	}
}

func TestMarkerPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []history.RecoveryMarker{
		historyMarkerSeed(),
		{Monitor: "m", Horizon: 1, At: time.Unix(0, 0).UTC()}, // zero dropped, no rule/pid
		{Monitor: "x", Horizon: 1 << 40, Dropped: 1 << 20, Rule: "FD-1a", Pid: -3,
			At: time.Date(2026, 7, 26, 0, 0, 0, 999, time.UTC)},
	}
	for _, want := range cases {
		got, err := decodeMarker(appendMarker(nil, want))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("marker round trip changed it:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestDecodeMarkerRejectsDamage(t *testing.T) {
	t.Parallel()
	good := appendMarker(nil, historyMarkerSeed())
	if _, err := decodeMarker(good[:len(good)-1]); err == nil {
		t.Fatal("truncated marker payload decoded")
	}
	if _, err := decodeMarker(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("marker payload with trailing bytes decoded")
	}
	bad := append([]byte{}, good...)
	bad[0] = 99 // unknown payload version
	if _, err := decodeMarker(bad); err == nil {
		t.Fatal("unknown marker version decoded")
	}
	if _, err := decodeMarker(nil); err == nil {
		t.Fatal("empty marker payload decoded")
	}
}

// TestWALMarkerRoundTrip is the acceptance pin: markers written through
// the WAL come back from ReadDir, interleaved correctly with segment
// records, and do not disturb the event replay.
func TestWALMarkerRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	seg1 := event.Seq{
		{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at},
		{Seq: 2, Monitor: "a", Type: event.SignalExit, Pid: 1, Proc: "Op", Time: at},
	}
	seg2 := event.Seq{
		{Seq: 3, Monitor: "b", Type: event.Enter, Pid: 2, Proc: "Op", Flag: event.Completed, Time: at},
	}
	mk1 := historyMarkerSeed()
	mk2 := history.RecoveryMarker{Monitor: "b", Horizon: 3, Dropped: 0, Rule: "ST-1", At: at}
	if err := w.WriteSegment(Segment{Monitor: "a", Events: seg1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMarker(mk1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(Segment{Monitor: "b", Events: seg2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMarker(mk2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 2 || len(rep.Events) != 3 {
		t.Fatalf("replay: %d segments, %d events; want 2, 3", rep.Segments, len(rep.Events))
	}
	want := []history.RecoveryMarker{mk1, mk2}
	if !reflect.DeepEqual(rep.Markers, want) {
		t.Fatalf("markers did not round-trip:\n got %+v\nwant %+v", rep.Markers, want)
	}
	if rep.Recovered {
		t.Fatal("clean directory reported a recovered tail")
	}
}

// TestWALMarkerThroughExporter drives a marker through the async
// pipeline: Consume + ConsumeMarker on the exporter, WAL on disk,
// ReadDir back.
func TestWALMarkerThroughExporter(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exp := New(sink, Config{Policy: Block})
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	exp.Consume("a", event.Seq{{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at}})
	mk := historyMarkerSeed()
	exp.ConsumeMarker(mk)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.Markers != 1 || st.MarkersWritten != 1 {
		t.Fatalf("marker stats: accepted %d written %d, want 1/1", st.Markers, st.MarkersWritten)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Markers) != 1 || !reflect.DeepEqual(rep.Markers[0], mk) {
		t.Fatalf("markers = %+v, want [%+v]", rep.Markers, mk)
	}
	// After Close the exporter discards markers instead of blocking.
	exp.ConsumeMarker(mk)
	if got := exp.Stats().Markers; got != 1 {
		t.Fatalf("marker accepted after Close (count %d)", got)
	}
}

// TestMarkerSinkOptional: an exporter over a sink without MarkerSink
// must swallow markers without erroring — the marker is simply not
// persisted.
func TestMarkerSinkOptional(t *testing.T) {
	t.Parallel()
	exp := New(&segmentOnlySink{}, Config{})
	exp.ConsumeMarker(historyMarkerSeed())
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.Markers != 1 || st.MarkersWritten != 0 || st.WriteErrors != 0 {
		t.Fatalf("stats = %+v, want 1 accepted, 0 written, 0 errors", st)
	}
}

// segmentOnlySink implements Sink but not MarkerSink.
type segmentOnlySink struct{}

func (segmentOnlySink) WriteSegment(Segment) error { return nil }
func (segmentOnlySink) Flush() error               { return nil }
func (segmentOnlySink) Close() error               { return nil }

// writeV1File hand-writes a format-version-1 WAL file (no record-type
// bytes) holding the given segments — what every pre-marker release of
// the sink produced.
func writeV1File(t *testing.T, name string, segs []Segment) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(walMagicPrefix[:])
	buf.WriteByte(walVersion1)
	var scratch [8]byte
	for _, seg := range segs {
		var payload bytes.Buffer
		if err := event.WriteBinary(&payload, seg.Events); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(seg.Monitor)))
		buf.Write(scratch[:2])
		buf.WriteString(seg.Monitor)
		binary.LittleEndian.PutUint64(scratch[:], uint64(seg.First()))
		buf.Write(scratch[:8])
		binary.LittleEndian.PutUint64(scratch[:], uint64(seg.Last()))
		buf.Write(scratch[:8])
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(seg.Events)))
		buf.Write(scratch[:4])
		binary.LittleEndian.PutUint32(scratch[:4], uint32(payload.Len()))
		buf.Write(scratch[:4])
		binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(payload.Bytes()))
		buf.Write(scratch[:4])
		buf.Write(payload.Bytes())
	}
	if err := os.WriteFile(name, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirAcceptsV1Files pins backward compatibility: an export
// directory written before the marker format (version 1, no record-type
// bytes) still replays, marker-free — including mixed directories where
// a resumed append added version-2 files after it.
func TestReadDirAcceptsV1Files(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	seg := event.Seq{
		{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at},
		{Seq: 2, Monitor: "a", Type: event.SignalExit, Pid: 1, Proc: "Op", Time: at},
	}
	writeV1File(t, filepath.Join(dir, "00000001.wal"), []Segment{{Monitor: "a", Events: seg}})

	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 2 || len(rep.Markers) != 0 {
		t.Fatalf("v1 replay: %d events, %d markers; want 2, 0", len(rep.Events), len(rep.Markers))
	}

	// Resume-append: the current sink numbers itself after the v1 file
	// and writes the current format alongside.
	w, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seg2 := event.Seq{{Seq: 3, Monitor: "b", Type: event.Enter, Pid: 2, Proc: "Op", Flag: event.Completed, Time: at}}
	if err := w.WriteSegment(Segment{Monitor: "b", Events: seg2}); err != nil {
		t.Fatal(err)
	}
	mk := historyMarkerSeed()
	if err := w.WriteMarker(mk); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 3 || rep.Files != 2 {
		t.Fatalf("mixed replay: %d events in %d files; want 3 in 2", len(rep.Events), rep.Files)
	}
	if len(rep.Markers) != 1 || !reflect.DeepEqual(rep.Markers[0], mk) {
		t.Fatalf("mixed replay markers = %+v", rep.Markers)
	}
}

// TestTornMarkerTailRecovers: a crash mid-marker behaves exactly like a
// crash mid-segment — the torn tail of the newest file is dropped and
// everything before it survives.
func TestTornMarkerTailRecovers(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	if err := w.WriteSegment(Segment{Monitor: "a", Events: event.Seq{
		{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMarker(historyMarkerSeed()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("wal files: %v, %v", names, err)
	}
	blob, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the marker record's payload.
	if err := os.WriteFile(names[0], blob[:len(blob)-3], 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatal("torn marker tail not reported as recovered")
	}
	if len(rep.Events) != 1 || len(rep.Markers) != 0 {
		t.Fatalf("recovered replay: %d events, %d markers; want 1, 0", len(rep.Events), len(rep.Markers))
	}
}
