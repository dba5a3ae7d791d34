package export

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// fixtureFiles are the records of the committed testdata/allkinds
// directory, file by file: every record kind, and one exact duplicate
// health snapshot across the two files (the interrupted-compaction
// signature).
func fixtureFiles() [][]Record {
	at := time.Date(2001, 7, 1, 12, 0, 0, 0, time.UTC)
	ev := func(seq int64, mon string, typ event.Type) event.Event {
		return event.Event{Seq: seq, Monitor: mon, Type: typ, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at.Add(time.Duration(seq) * time.Millisecond)}
	}
	health := obs.HealthRecord{At: at, Seq: 2, Metrics: obs.Snapshot{
		Counters:   []obs.Metric{{Name: "history_append_total", Value: 2}},
		Histograms: []obs.HistogramSnapshot{{Name: "detect_check_ns", Count: 1, Sum: 900, Buckets: []obs.Bucket{{Index: 10, Count: 1}}}},
	}}
	fired := obsrules.Alert{At: at, Seq: 3, Rule: "slow", Metric: "detect_check_ns", Value: 2e6, Ceiling: 1e6, Firing: true, Origin: "node-a"}
	cleared := fired
	cleared.Seq, cleared.Firing = 4, false
	return [][]Record{{
		{Segment: &Segment{Monitor: "a", Events: event.Seq{ev(1, "a", event.Enter), ev(2, "a", event.SignalExit)}}},
		{Marker: &history.RecoveryMarker{Monitor: "a", Horizon: 2, Dropped: 1, Rule: "ST-5", Pid: 1, At: at}},
		{Health: &health},
		{Segment: &Segment{Monitor: "b", Events: event.Seq{ev(3, "b", event.Enter)}}},
		{Alert: &fired},
	}, {
		{Tombstone: &Tombstone{Horizon: 1, Files: 1, At: at}},
		{Health: &health},
		{Alert: &cleared},
		{Segment: &Segment{Monitor: "a", Events: event.Seq{ev(4, "a", event.Enter)}}},
	}}
}

// TestReadDirAllKindsFixture pins compatibility with WAL directories
// written before the single record path: testdata/allkinds holds every
// record kind as the earlier writer put it on disk, and must replay to
// exactly the Replay that release read back (testdata/allkinds.replay)
// — and today's WAL writer and wire codec must both reproduce its
// bytes.
func TestReadDirAllKindsFixture(t *testing.T) {
	t.Parallel()
	const fixture = "testdata/allkinds"
	rep, err := ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/allkinds.replay")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%#v\n", *rep); got != string(want) {
		t.Fatalf("replay of the fixture changed:\n got %s\nwant %s", got, want)
	}

	dir := t.TempDir()
	for _, recs := range fixtureFiles() {
		w, err := NewWALSink(dir, WALConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := r.Apply(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := walFiles(fixture)
	if err != nil || len(names) != 2 {
		t.Fatalf("fixture files %v, %v", names, err)
	}
	for i, name := range names {
		old, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(filepath.Join(dir, filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(old, now) {
			t.Fatalf("%s: today's writer produced different bytes", filepath.Base(name))
		}
		wire := append(append([]byte{}, walMagicPrefix[:]...), walVersionLatest)
		for _, r := range fixtureFiles()[i] {
			if wire, err = AppendRecord(wire, r); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(old, wire) {
			t.Fatalf("%s: today's wire codec produced different bytes", filepath.Base(name))
		}
	}
}
