package compact

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/index"
	"robustmon/internal/history"
	"robustmon/internal/obs"
)

// eventKey pins an event's full identity through the binary codec, so
// "survived byte-identically" means exactly that.
func eventKey(t *testing.T, e event.Event) string {
	t.Helper()
	var buf bytes.Buffer
	if err := event.WriteBinary(&buf, event.Seq{e}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkRetentionInvariants verifies the retention contract between a
// before-replay and an after-replay: no event at or above the
// after-replay's retention horizon may be missing, every missing event
// must lie strictly below it, the tombstone's cumulative event count
// must equal the number actually missing, and every marker whose
// horizon is at or above the retention horizon must survive.
func checkRetentionInvariants(t *testing.T, before, after *export.Replay) {
	t.Helper()
	h := after.RetentionHorizon()
	afterSet := make(map[int64]string, len(after.Events))
	for _, e := range after.Events {
		afterSet[e.Seq] = eventKey(t, e)
	}
	var missing int64
	for _, e := range before.Events {
		k, ok := afterSet[e.Seq]
		if !ok {
			missing++
			if e.Seq >= h {
				t.Fatalf("event seq %d missing but at-or-above retention horizon %d", e.Seq, h)
			}
			continue
		}
		if k != eventKey(t, e) {
			t.Fatalf("event seq %d survived but changed", e.Seq)
		}
	}
	if missing > 0 && len(after.Tombstones) == 0 {
		t.Fatalf("%d events missing but no tombstone recorded the truncation", missing)
	}
	if len(after.Tombstones) > 0 {
		tb := after.Tombstones[0]
		for _, other := range after.Tombstones[1:] {
			if other.Horizon > tb.Horizon {
				tb = other
			}
		}
		// The tombstone is cumulative: what the before-replay's own
		// tombstone had already recorded, plus what went missing since.
		var prior int64
		for _, pt := range before.Tombstones {
			if pt.Events > prior {
				prior = pt.Events
			}
		}
		if tb.Events != prior+missing {
			t.Fatalf("tombstone counts %d dropped events, want %d already recorded + %d newly missing", tb.Events, prior, missing)
		}
	}
	afterMarkers := make(map[history.RecoveryMarker]bool, len(after.Markers))
	for _, m := range after.Markers {
		afterMarkers[m] = true
	}
	for _, m := range before.Markers {
		if m.Horizon >= h && !afterMarkers[m] {
			t.Fatalf("marker %+v orphaned: horizon %d is at-or-above retention horizon %d but the marker is gone", m, m.Horizon, h)
		}
	}
}

// TestRetentionDropsBehindTombstone pins the basic retention pass:
// files wholly below the seq floor are dropped, a tombstone records
// the horizon and exactly what vanished, and everything at or above
// the horizon replays byte-identically.
func TestRetentionDropsBehindTombstone(t *testing.T) {
	t.Parallel()
	dir, markers := buildMessyDir(t, false)
	before, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Dir(dir, Config{KeepNewest: -1, RetainSeq: 10})
	if err != nil {
		t.Fatal(err)
	}
	// buildMessyDir rotates per record: the files holding a[1..3],
	// b[4..7] and c[8..9] sit wholly below seq 10; the next file
	// (b[10..12]) straddles the floor and must survive whole.
	if res.FilesDropped != 3 {
		t.Fatalf("FilesDropped = %d, want 3: %s", res.FilesDropped, res)
	}
	if res.EventsDropped != 9 || res.RecordsDropped != 3 {
		t.Fatalf("dropped %d events / %d records, want 9 / 3", res.EventsDropped, res.RecordsDropped)
	}
	if res.TombstoneHorizon != 10 {
		t.Fatalf("TombstoneHorizon = %d, want 10", res.TombstoneHorizon)
	}
	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.RetentionHorizon(); got != 10 {
		t.Fatalf("RetentionHorizon() = %d, want 10", got)
	}
	if len(after.Tombstones) != 1 {
		t.Fatalf("replay carries %d tombstones, want 1", len(after.Tombstones))
	}
	tb := after.Tombstones[0]
	if tb.Files != 3 || tb.Records != 3 || tb.Events != 9 {
		t.Fatalf("tombstone accounts %d files / %d records / %d events, want 3 / 3 / 9", tb.Files, tb.Records, tb.Events)
	}
	wantRanges := map[string][2]int64{"a": {1, 3}, "b": {4, 7}, "c": {8, 9}}
	if len(tb.Monitors) != len(wantRanges) {
		t.Fatalf("tombstone names %d monitors, want %d", len(tb.Monitors), len(wantRanges))
	}
	for _, tr := range tb.Monitors {
		want, ok := wantRanges[tr.Monitor]
		if !ok || tr.MinSeq != want[0] || tr.MaxSeq != want[1] {
			t.Fatalf("tombstone range %+v, want %v", tr, want)
		}
	}
	if len(after.Markers) != len(markers) {
		t.Fatalf("markers: got %d, want %d (both horizons are above the floor)", len(after.Markers), len(markers))
	}
	checkRetentionInvariants(t, before, after)
	// The surviving stream is byte-identical to the original filtered
	// at the horizon.
	want := traceBytes(t, before.Events.SubSeq(10, 1<<62))
	got := traceBytes(t, after.Events)
	if !bytes.Equal(want, got) {
		t.Fatal("surviving events differ from the original stream above the horizon")
	}
}

// TestRetentionPropertyRandomHorizons is the acceptance property test:
// across randomized directories, random retention floors and random
// KeepNewest choices, retention never loses a record at or above the
// tombstone horizon, the tombstone's counters balance, and no marker
// a replay needs is orphaned.
func TestRetentionPropertyRandomHorizons(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(20010707))
	for round := 0; round < 40; round++ {
		dir := t.TempDir()
		sink, err := export.NewWALSink(dir, export.WALConfig{
			MaxFileBytes: int64(1 + rng.Intn(200)),
		})
		if err != nil {
			t.Fatal(err)
		}
		mons := []string{"a", "b", "c", "d"}
		seq := int64(1)
		for rec := 0; rec < 5+rng.Intn(20); rec++ {
			if rng.Intn(7) == 0 {
				m := history.RecoveryMarker{
					Monitor: mons[rng.Intn(len(mons))], Horizon: seq - 1,
					Dropped: rng.Intn(5), Rule: "FD-2", Pid: int64(rec),
					At: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC),
				}
				if err := sink.WriteMarker(m); err != nil {
					t.Fatal(err)
				}
				continue
			}
			mon := mons[rng.Intn(len(mons))]
			n := int64(1 + rng.Intn(8))
			if err := sink.WriteSegment(export.Segment{Monitor: mon, Events: tseq(mon, seq, seq+n-1)}); err != nil {
				t.Fatal(err)
			}
			seq += n
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		before, err := export.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{RetainSeq: 1 + rng.Int63n(seq+5), ChunkEvents: 1 + rng.Intn(16)}
		if rng.Intn(2) == 0 {
			cfg.KeepNewest = -1
		}
		if _, err := Dir(dir, cfg); err != nil {
			t.Fatalf("round %d (floor %d): %v", round, cfg.RetainSeq, err)
		}
		after, err := export.ReadDir(dir)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if h := after.RetentionHorizon(); h > cfg.RetainSeq {
			t.Fatalf("round %d: horizon %d above the configured floor %d", round, h, cfg.RetainSeq)
		}
		checkRetentionInvariants(t, before, after)
	}
}

// TestRetentionMarkerAboveFloorKeepsFile pins the marker-orphan rule
// at the file level: a file whose events sit wholly below the floor
// but which carries a marker with a horizon at or above it must not be
// dropped — the marker (and, at file granularity, the events sharing
// its file) survives.
func TestRetentionMarkerAboveFloorKeepsFile(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mk := history.RecoveryMarker{Monitor: "a", Horizon: 100, Dropped: 2, Rule: "ST-5", Pid: 1,
		At: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)}
	if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 1, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteMarker(mk); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// A second sink session adds a newer file so the directory has two.
	sink, err = export.NewWALSink(dir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteSegment(export.Segment{Monitor: "b", Events: tseq("b", 101, 110)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Dir(dir, Config{KeepNewest: -1, RetainSeq: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesDropped != 0 {
		t.Fatalf("FilesDropped = %d, want 0: the marker's horizon pins its file", res.FilesDropped)
	}
	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Markers) != 1 || after.Markers[0] != mk {
		t.Fatalf("marker did not survive: %+v", after.Markers)
	}
	if len(after.Events) != 15 {
		t.Fatalf("got %d events, want all 15 (the marker keeps its file whole)", len(after.Events))
	}
	if len(after.Tombstones) != 0 {
		t.Fatal("nothing was dropped, so no tombstone should exist")
	}
}

// TestRetentionFoldsAcrossPasses pins the cumulative tombstone: a
// second pass with a higher floor folds the first pass's tombstone
// into its own — one live tombstone, cumulative counters, advancing
// horizon — and a pass that drops nothing carries it through
// unchanged.
func TestRetentionFoldsAcrossPasses(t *testing.T) {
	t.Parallel()
	dir, _ := buildMessyDir(t, false)
	before, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Pass 1 drops 1..9 and re-rotates the survivors into tiny files
	// (one record each) so the next pass has whole files to drop below
	// a higher floor.
	if _, err := Dir(dir, Config{KeepNewest: -1, RetainSeq: 10, MaxFileBytes: 1, ChunkEvents: 4}); err != nil {
		t.Fatal(err)
	}
	mid, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Dir(dir, Config{KeepNewest: -1, RetainSeq: 25, MaxFileBytes: 1, ChunkEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesDropped == 0 {
		t.Fatal("second retention pass dropped nothing; the scenario is vacuous")
	}
	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Tombstones) != 1 {
		t.Fatalf("got %d tombstones, want exactly 1 (folded)", len(after.Tombstones))
	}
	checkRetentionInvariants(t, before, after)
	checkRetentionInvariants(t, mid, after)
	tb := after.Tombstones[0]
	if tb.Horizon <= 10 || tb.Horizon > 25 {
		t.Fatalf("folded horizon %d, want in (10, 25]", tb.Horizon)
	}
	if tb.Events <= 9 {
		t.Fatalf("folded tombstone counts %d events; pass 1's 9 plus pass 2's drops expected", tb.Events)
	}
	// A further pass that drops nothing — it merges the tiny files
	// back together — must carry the tombstone through byte-identically
	// (same At, same counters).
	if _, err := Dir(dir, Config{KeepNewest: -1, RetainSeq: tb.Horizon}); err != nil {
		t.Fatal(err)
	}
	again, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Tombstones) != 1 || tombstoneKey(again.Tombstones[0]) != tombstoneKey(tb) {
		t.Fatalf("no-drop pass altered the tombstone:\n  was %+v\n  now %+v", tb, again.Tombstones)
	}
	if !bytes.Equal(traceBytes(t, after.Events), traceBytes(t, again.Events)) {
		t.Fatal("no-drop pass altered the event stream")
	}
}

// TestRetainBeforeDropsOldFiles pins wall-clock retention: files whose
// mtime predates the floor are dropped, and the tombstone horizon
// still derives from the dropped content, so the at-or-above-horizon
// guarantee holds even though the trigger was age.
func TestRetainBeforeDropsOldFiles(t *testing.T) {
	t.Parallel()
	dir, _ := buildMessyDir(t, false)
	before, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	for _, name := range names[:2] {
		if err := os.Chtimes(name, old, old); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Dir(dir, Config{KeepNewest: -1, RetainBefore: time.Now().Add(-24 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesDropped != 2 {
		t.Fatalf("FilesDropped = %d, want the 2 aged files", res.FilesDropped)
	}
	after, err := export.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.RetentionHorizon() == 0 {
		t.Fatal("age-based drop left no tombstone")
	}
	checkRetentionInvariants(t, before, after)
}

// TestWindowBelowHorizonReportsTombstone pins the reader-facing
// contract: a windowed query wholly below the retention horizon
// returns no events but carries the tombstone, so the caller learns
// "truncated by retention" instead of "nothing happened" — through
// the index fast path and the full-scan path alike.
func TestWindowBelowHorizonReportsTombstone(t *testing.T) {
	t.Parallel()
	dir, _ := buildMessyDir(t, true)
	if _, err := Dir(dir, Config{KeepNewest: -1, RetainSeq: 10}); err != nil {
		t.Fatal(err)
	}
	r, err := index.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Index() == nil {
		t.Fatal("directory lost its index")
	}
	rep, err := r.ReplayRange(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 0 {
		t.Fatalf("window [1,5] is below the horizon; got %d events", len(rep.Events))
	}
	if got := rep.RetentionHorizon(); got != 10 {
		t.Fatalf("window [1,5]: RetentionHorizon() = %d, want 10 (the tombstone must be surfaced)", got)
	}
	// A window above the horizon still gets both its events and the
	// tombstone.
	rep, err = r.ReplayRange(10, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) == 0 {
		t.Fatal("window [10,15] is above the horizon; events expected")
	}
	if rep.RetentionHorizon() != 10 {
		t.Fatal("above-horizon window lost the tombstone")
	}
}

// TestCompactErrorsCounterOnEveryFailurePath pins the error
// accounting: a failed pass bumps compact_errors_total and leaves the
// directory retriable (no input removed), whichever phase failed; a
// successful pass does not touch the counter.
func TestCompactErrorsCounterOnEveryFailurePath(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := sink.WriteSegment(export.Segment{Monitor: "a", Events: tseq("a", 1+i*10, 5+i*10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("want >= 3 files, got %d", len(names))
	}
	// Tear the middle of a non-newest file: corruption, not a crash
	// tail — the pass must refuse.
	info, err := os.Stat(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(names[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Dir(dir, Config{KeepNewest: -1, Obs: reg}); err == nil {
		t.Fatal("expected the torn rotated file to fail the pass")
	}
	if got := reg.Counter("compact_errors_total").Value(); got != 1 {
		t.Fatalf("compact_errors_total = %d after a failed pass, want 1", got)
	}
	left, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != len(names) {
		t.Fatalf("failed pass removed inputs: %d files left of %d", len(left), len(names))
	}
	// Repair (remove the damage) and retry: success, and the error
	// counter stays put.
	if err := os.Remove(names[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Dir(dir, Config{KeepNewest: -1, Obs: reg}); err != nil {
		t.Fatalf("retry after repair: %v", err)
	}
	if got := reg.Counter("compact_errors_total").Value(); got != 1 {
		t.Fatalf("compact_errors_total = %d after a successful retry, want still 1", got)
	}
	if got := reg.Counter("compact_passes_total").Value(); got != 1 {
		t.Fatalf("compact_passes_total = %d, want 1", got)
	}
}

// TestStreamingCompactionBoundedMemory is the bounded-memory pin: the
// live heap while compacting a backlog many times the chunk budget
// must stay far below the size of the decoded backlog. A
// whole-backlog-in-RAM compactor would hold every decoded event live
// at merge time (tens of megabytes here); the streaming merge holds
// one decoded record per input file plus one output chunk.
func TestStreamingCompactionBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement is noisy under -short")
	}
	dir := t.TempDir()
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const perRec = 1024
	seq := int64(1)
	for rec := 0; rec < 256; rec++ {
		mon := fmt.Sprintf("m%d", rec%4)
		if err := sink.WriteSegment(export.Segment{Monitor: mon, Events: tseq(mon, seq, seq+perRec-1)}); err != nil {
			t.Fatal(err)
		}
		seq += perRec
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// ~262k events: decoded whole, the backlog is well over 25 MB of
	// live event structs and strings — the budget below is impossible
	// for a load-everything pass.
	//
	// HeapAlloc counts garbage not yet collected too, which the default
	// GOGC lets grow to the size of the live heap — and further when
	// other processes starve the background collector. A low GOGC keeps
	// the sampled peak close to what the pass holds live, the quantity
	// the bound is about.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := m0.HeapAlloc
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var m runtime.MemStats
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	res, err := Dir(dir, Config{KeepNewest: -1, ChunkEvents: 256, MaxFileBytes: 64 << 10})
	close(done)
	sampler.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != seq-1 {
		t.Fatalf("compacted %d events, want %d", res.Events, seq-1)
	}
	if grew := int64(peak) - int64(m0.HeapAlloc); grew > 16<<20 {
		t.Fatalf("peak heap grew %d bytes compacting %d events; streaming merge should be O(files x record), not O(backlog)", grew, res.Events)
	}
}

// tombstoneKey is a tombstone's exact-duplicate identity.
func tombstoneKey(t export.Tombstone) string { return export.Record{Tombstone: &t}.Key() }
