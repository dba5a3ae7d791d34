package compact

import (
	"reflect"
	"testing"
	"time"

	"robustmon/internal/export"
	"robustmon/internal/obs"
)

// th builds a test health snapshot at the given sequence horizon.
func th(seq int64) obs.HealthRecord {
	return obs.HealthRecord{
		At:  time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second),
		Seq: seq,
		Metrics: obs.Snapshot{
			Counters: []obs.Metric{{Name: "history_append_total", Value: seq * 3}},
			Gauges:   []obs.Metric{{Name: "export_queue_depth", Value: 1}},
			Histograms: []obs.HistogramSnapshot{{
				Name: "detect_check_ns", Count: 4, Sum: 2048,
				Buckets: []obs.Bucket{{Index: 10, Count: 4}},
			}},
		},
	}
}

// healthKeys canonicalises a health list for byte-identity comparison.
func healthKeys(hs []obs.HealthRecord) []string {
	keys := make([]string, len(hs))
	for i, h := range hs {
		keys[i] = healthKey(h)
	}
	return keys
}

// TestCompactionCarriesHealthsByteIdentical: health snapshots must ride
// through a compaction byte for byte — the timeline a post-mortem
// renders is the same before and after the directory is merged.
func TestCompactionCarriesHealthsByteIdentical(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	healths := []obs.HealthRecord{th(0), th(10), th(20)}
	if err := sink.WriteHealth(healths[0]); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(healths[1]); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "b", Events: tseq("b", 11, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(healths[2]); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Healths, healths) {
		t.Fatalf("fixture replay healths = %+v", before.Healths)
	}

	reg := obs.NewRegistry()
	res, err := Dir(dir, Config{KeepNewest: -1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Healths != 3 {
		t.Fatalf("Result.Healths = %d, want 3: %+v", res.Healths, res)
	}
	if res.BytesReclaimed <= 0 {
		t.Fatalf("BytesReclaimed = %d, want > 0 merging 5 one-record files", res.BytesReclaimed)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("compact_passes_total"); v != 1 {
		t.Fatalf("compact_passes_total = %d, want 1", v)
	}
	if v, _ := snap.Counter("compact_bytes_reclaimed_total"); v != res.BytesReclaimed {
		t.Fatalf("compact_bytes_reclaimed_total = %d, Result says %d", v, res.BytesReclaimed)
	}

	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(healthKeys(before.Healths), healthKeys(after.Healths)) {
		t.Fatalf("compaction changed the health timeline:\n%+v\nvs\n%+v", before.Healths, after.Healths)
	}
	if len(after.Events) != 20 {
		t.Fatalf("compaction lost events: %d of 20", len(after.Events))
	}
}

// TestCompactionDedupsDuplicateHealths: a crash between installing the
// merged output and unlinking its inputs leaves the same health record
// in two files; the reader collapses it and a compaction rerun
// converges to a single copy on disk.
func TestCompactionDedupsDuplicateHealths(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := th(5)
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 1, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(h); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHealth(h); err != nil { // the "leftover input"
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 6, 9)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicateHealths != 1 || len(rep.Healths) != 1 {
		t.Fatalf("replay = %d healths, %d duplicates; want 1 and 1", len(rep.Healths), rep.DuplicateHealths)
	}
	res, err := Dir(dir, Config{KeepNewest: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Healths != 1 {
		t.Fatalf("Result.Healths = %d, want the single deduped snapshot", res.Healths)
	}
	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.DuplicateHealths != 0 || len(after.Healths) != 1 ||
		healthKey(after.Healths[0]) != healthKey(h) {
		t.Fatalf("compaction did not converge the duplicate: %d healths, %d duplicates",
			len(after.Healths), after.DuplicateHealths)
	}
	if len(after.Events) != 9 {
		t.Fatalf("compaction lost events: %d of 9", len(after.Events))
	}
}

// healthKey is a health snapshot's exact-duplicate identity.
func healthKey(h obs.HealthRecord) string { return export.Record{Health: &h}.Key() }
