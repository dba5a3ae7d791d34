package export

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/obs"
)

// healthRecordSeed is the reference health snapshot used by tests: a
// little of every section, with a histogram whose buckets exercise
// the varint edges.
func healthRecordSeed() obs.HealthRecord {
	return obs.HealthRecord{
		At:  time.Date(2001, 7, 1, 12, 30, 0, 250, time.UTC),
		Seq: 4217,
		Metrics: obs.Snapshot{
			Counters: []obs.Metric{
				{Name: "detect_checks_total", Value: 12},
				{Name: "history_append_total", Value: 4217},
			},
			Gauges: []obs.Metric{
				{Name: "export_queue_depth", Value: 3},
			},
			Histograms: []obs.HistogramSnapshot{
				{Name: "detect_check_ns", Count: 12, Sum: 48_000_000,
					Buckets: []obs.Bucket{{Index: 0, Count: 1}, {Index: 21, Count: 7}, {Index: 23, Count: 4}}},
			},
		},
	}
}

func TestHealthPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []obs.HealthRecord{
		healthRecordSeed(),
		{At: time.Unix(0, 0).UTC()}, // horizon 0, empty registry — the pre-first-event anchor
		{At: time.Date(2026, 7, 26, 0, 0, 0, 999, time.UTC), Seq: 1 << 40,
			Metrics: obs.Snapshot{Counters: []obs.Metric{{Name: "c", Value: -5}}}},
	}
	for _, want := range cases {
		got, err := decodeHealth(appendHealth(nil, want))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("health round trip changed it:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestHealthEncodingDeterministic pins the property Record.Key (and
// the compactor's dedup) relies on: identical records encode to
// identical bytes, byte for byte.
func TestHealthEncodingDeterministic(t *testing.T) {
	t.Parallel()
	a, b := appendHealth(nil, healthRecordSeed()), appendHealth(nil, healthRecordSeed())
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings of the same record differ:\n%x\n%x", a, b)
	}
	if (Record{Health: ptr(healthRecordSeed())}).Key() != string(append([]byte{byte(KindHealth)}, a...)) {
		t.Fatal("the record key is not the canonical encoding")
	}
}

func TestDecodeHealthRejectsDamage(t *testing.T) {
	t.Parallel()
	good := appendHealth(nil, healthRecordSeed())
	if _, err := decodeHealth(good[:len(good)-1]); err == nil {
		t.Fatal("truncated health payload decoded")
	}
	if _, err := decodeHealth(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("health payload with trailing bytes decoded")
	}
	bad := append([]byte{}, good...)
	bad[0] = 99 // unknown payload version
	if _, err := decodeHealth(bad); err == nil {
		t.Fatal("unknown health version decoded")
	}
	if _, err := decodeHealth(nil); err == nil {
		t.Fatal("empty health payload decoded")
	}
}

// TestWALHealthRoundTrip is the acceptance pin: health snapshots
// written through the WAL come back from ReadDir byte-identically,
// interleaved with segment and marker records without disturbing
// either.
func TestWALHealthRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	seg := event.Seq{
		{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at},
		{Seq: 2, Monitor: "a", Type: event.SignalExit, Pid: 1, Proc: "Op", Time: at},
	}
	h0 := obs.HealthRecord{At: at} // horizon 0: emitted before the first checkpoint drained anything
	h1 := healthRecordSeed()
	h1.Seq = 2
	if err := w.WriteHealth(h0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(Segment{Monitor: "a", Events: seg}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMarker(historyMarkerSeed()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHealth(h1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 2 || len(rep.Markers) != 1 {
		t.Fatalf("replay: %d events, %d markers; want 2, 1", len(rep.Events), len(rep.Markers))
	}
	want := []obs.HealthRecord{h0, h1}
	if !reflect.DeepEqual(rep.Healths, want) {
		t.Fatalf("healths did not round-trip:\n got %+v\nwant %+v", rep.Healths, want)
	}
	for i, h := range rep.Healths {
		if !bytes.Equal(appendHealth(nil, h), appendHealth(nil, want[i])) {
			t.Fatalf("health %d not byte-identical after replay", i)
		}
	}
}

// TestWALHealthThroughExporter drives a health snapshot through the
// async pipeline and checks the Stats accounting on both legs.
func TestWALHealthThroughExporter(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exp := New(sink, Config{Policy: Block})
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	exp.Consume("a", event.Seq{{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at}})
	h := healthRecordSeed()
	exp.ConsumeHealth(h)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.Healths != 1 || st.HealthsWritten != 1 {
		t.Fatalf("health stats: accepted %d written %d, want 1/1", st.Healths, st.HealthsWritten)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Healths) != 1 || !reflect.DeepEqual(rep.Healths[0], h) {
		t.Fatalf("healths = %+v, want [%+v]", rep.Healths, h)
	}
	// After Close the exporter discards health records instead of
	// blocking.
	exp.ConsumeHealth(h)
	if got := exp.Stats().Healths; got != 1 {
		t.Fatalf("health accepted after Close (count %d)", got)
	}
}

// TestHealthSinkOptional: an exporter over a sink without HealthSink
// must swallow health records without erroring.
func TestHealthSinkOptional(t *testing.T) {
	t.Parallel()
	exp := New(&segmentOnlySink{}, Config{})
	exp.ConsumeHealth(healthRecordSeed())
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.Healths != 1 || st.HealthsWritten != 0 || st.WriteErrors != 0 {
		t.Fatalf("stats = %+v, want 1 accepted, 0 written, 0 errors", st)
	}
}

// TestTornHealthTailRecovers: a crash mid-health-record behaves like a
// crash mid-segment — the torn tail is dropped, everything before it
// survives.
func TestTornHealthTailRecovers(t *testing.T) {
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
	if err := w.WriteHealth(healthRecordSeed()); err != nil {
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
	// Chop into the health record's payload.
	if err := os.WriteFile(names[0], blob[:len(blob)-3], 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatal("torn health tail not reported as recovered")
	}
	if len(rep.Events) != 1 || len(rep.Healths) != 0 {
		t.Fatalf("recovered replay: %d events, %d healths; want 1, 0", len(rep.Events), len(rep.Healths))
	}
}

// TestMergeReplayDedupsHealths: exact duplicates (compaction overlap)
// collapse to the first occurrence and are counted; distinct records
// with equal horizons both survive.
func TestMergeReplayDedupsHealths(t *testing.T) {
	t.Parallel()
	h1 := healthRecordSeed()
	h2 := healthRecordSeed()
	h2.Metrics.Counters[0].Value++ // same horizon, different state
	rep, err := MergeReplay(nil, []Record{{Health: &h1}, {Health: &h2}, {Health: &h1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Healths) != 2 || rep.DuplicateHealths != 1 {
		t.Fatalf("got %d healths, %d duplicates; want 2, 1", len(rep.Healths), rep.DuplicateHealths)
	}
	if !reflect.DeepEqual(rep.Healths, []obs.HealthRecord{h1, h2}) {
		t.Fatalf("dedup broke first-occurrence order: %+v", rep.Healths)
	}
}

// TestScanFileIndexesHealths: ScanFile records each health snapshot's
// horizon and offset, and ReadRecordAt point-reads it back — the
// index's skipped-file path.
func TestScanFileIndexesHealths(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	h0 := obs.HealthRecord{At: at}
	h1 := healthRecordSeed()
	if err := w.WriteHealth(h0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(Segment{Monitor: "a", Events: event.Seq{
		{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHealth(h1); err != nil {
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
	fs, err := ScanFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KindHealth, KindHealth, KindMarker}
	if len(fs.Annotations) != len(kinds) {
		t.Fatalf("summary holds %d annotations, want %d", len(fs.Annotations), len(kinds))
	}
	want := []obs.HealthRecord{h0, h1}
	for i, a := range fs.Annotations {
		if a.Kind != kinds[i] {
			t.Fatalf("annotation %d indexed as %s, want %s", i, a.Kind, kinds[i])
		}
		if a.Kind != KindHealth {
			continue
		}
		if a.Horizon != want[i].Seq {
			t.Fatalf("health %d indexed at seq %d, want %d", i, a.Horizon, want[i].Seq)
		}
		got, err := ReadRecordAt(names[0], a.Offset)
		if err != nil {
			t.Fatalf("ReadRecordAt(%d): %v", a.Offset, err)
		}
		if got.Health == nil || !reflect.DeepEqual(*got.Health, want[i]) {
			t.Fatalf("point-read health %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}
