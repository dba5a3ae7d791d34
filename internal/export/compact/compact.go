// Package compact is the storage half of the trace store: it merges a
// directory's rotated WAL segment files into dense, per-monitor v2
// segments, bounding the on-disk footprint and the file count a
// replaying reader must visit, and — when a retention floor is set —
// drops segment files wholly below the floor behind a tombstone record
// of exactly what was truncated.
//
// A long-running detector rotates hundreds of small segment files
// whose records interleave monitors in drain order. The compactor
// rewrites the sealed backlog — never the active segment — so each
// monitor's events sit in few large, seq-contiguous records, which is
// both smaller (one record header amortised over thousands of events)
// and exactly the shape the windowed SeekReader prunes best.
//
// # Streaming merge
//
// Compaction is a streaming per-monitor k-way merge in bounded memory:
// a header-only scan (export.ScanFileRecords) locates every record of
// every input, then one open cursor per input file decodes segment
// records one at a time (export.RecordReader) in merge order. Resident
// state is one decoded record per input file plus one output chunk
// (Config.ChunkEvents) — O(files × record), never O(backlog) — so a
// multi-gigabyte cold backlog compacts in the same footprint as a
// small one.
//
// # Invariants
//
// Replaying a compacted directory yields the identical merged event
// stream, marker list and health timeline as replaying the uncompacted
// original (pinned by TestCompactionReplayByteIdentical): sequence
// numbers are globally unique, so per-monitor re-segmentation never
// changes the k-way merge, and recovery markers and health snapshots
// are carried over in their original record order with their horizons
// intact. Pre-reset records — a reset
// monitor's events at or below its reset horizon — are preserved by
// default; Config.DropBelowReset discards them, counted in
// Result.DroppedPreReset, never silently.
//
// # Retention
//
// Config.RetainSeq (a sequence floor) and Config.RetainBefore (a
// file-age floor) bound the directory in bytes, not just file count:
// an input file is dropped — not merged — when every horizon it
// carries (segment seq ranges, marker horizons, health and alert seqs) lies
// strictly below the seq floor, or its mtime predates the age floor.
// The drop is never silent: a tombstone record (WAL record kind 3)
// lands in the lowest-numbered output, recording the retention horizon
// — every event at or above it is still present, by construction:
// the horizon is one past the highest sequence number actually dropped
// — and the cumulative count of dropped files, records and events,
// per monitor. Each pass folds the prior tombstone into the next, so a
// directory carries one live tombstone however many passes ran; a pass
// that drops nothing carries the tombstone through byte-identically.
// Replay surfaces it (export.Replay.Tombstones), so a windowed query
// below the horizon reports "truncated by retention" instead of
// silently returning less.
//
// # Crash and concurrency safety
//
// Output files are written and fsynced in a temporary subdirectory,
// renamed into the directory under fresh generation-suffixed names
// ("00000001-0001.wal" — never a name an existing file holds, sorting
// just before the inputs they supersede), and only then are the
// inputs unlinked. No step ever overwrites a live file, so every
// intermediate state a crash or concurrent reader can observe is a
// superset of the original records: complete files only, at worst
// with a merged output coexisting with inputs it duplicates, which
// the reader collapses (Replay.DuplicateEvents) back to the identical
// stream. Rerunning the compactor after a crash converges. One
// qualification under retention: a crash between installing outputs
// and unlinking dropped inputs can make the rerun count the same
// dropped file into the tombstone twice — the horizon and per-monitor
// ranges are idempotent (max/min), only the scalar drop counters are
// advisory after a crashed pass.
//
// Every early error return leaves a retriable directory (inputs are
// never removed before outputs are installed) and bumps
// compact_errors_total when Config.Obs is set.
package compact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/index"
	"robustmon/internal/obs"
)

// tmpDirName is the staging subdirectory inside the export directory.
// It matches no *.wal glob, and a stale one (a crashed compaction that
// never got to install anything) is discarded on the next run.
const tmpDirName = ".compact"

// DefaultChunkEvents bounds one output segment record when
// Config.ChunkEvents is zero: large enough to amortise the record
// header, small enough that a windowed reader never decodes an
// unbounded payload for a narrow window.
const DefaultChunkEvents = 8192

// Config parameterises a compaction.
type Config struct {
	// KeepNewest excludes that many of the highest-numbered segment
	// files from compaction. Zero means the default of 1 — the
	// possibly-active segment a live sink is appending to, which the
	// compactor must never touch — so the zero-value Config is always
	// safe to run against a live directory. Compacting *everything*
	// (a directory whose sink is closed) takes an explicit negative
	// value: the opt-in is deliberate, because compacting a file mid-
	// append unlinks it under the writer and loses records.
	KeepNewest int
	// MaxFileBytes rotates output files at this size (default
	// export.DefaultMaxFileBytes).
	MaxFileBytes int64
	// ChunkEvents bounds the events per output record (default
	// DefaultChunkEvents). It is also the unit of the streaming
	// merge's memory bound.
	ChunkEvents int
	// DropBelowReset additionally discards a reset monitor's events at
	// or below its highest reset horizon — the monitor's superseded
	// pre-reset life. The drop is flagged (Result.DroppedPreReset), the
	// markers recording the horizons are always preserved, and replay
	// equivalence with the original deliberately no longer holds for
	// the dropped monitor. Off by default.
	DropBelowReset bool
	// RetainSeq, when positive, is the retention floor: an eligible
	// input file whose every horizon (segment ranges, marker horizons,
	// health seqs) lies strictly below it is dropped whole behind the
	// tombstone instead of being merged. Records at or above RetainSeq
	// are never dropped. Zero disables sequence-based retention.
	RetainSeq int64
	// RetainBefore, when set, additionally drops eligible input files
	// whose modification time predates it — wall-clock retention for
	// stores whose sequence horizon is unknown to the operator. The
	// tombstone horizon still derives from the dropped content, so the
	// no-record-at-or-above-the-horizon guarantee holds regardless of
	// which floor triggered the drop.
	RetainBefore time.Time
	// Obs, when set, counts compactions on the registry:
	// compact_passes_total, compact_bytes_reclaimed_total (input
	// bytes minus output bytes; a no-op pass counts neither) and
	// compact_errors_total (every failed pass, whichever phase it
	// failed in). Nil disables at zero cost (see internal/obs).
	Obs *obs.Registry
}

// Result accounts one compaction.
type Result struct {
	// FilesIn inputs were processed — merged or dropped — into
	// FilesOut outputs (both zero for a no-op: fewer than two eligible
	// files and nothing to drop).
	FilesIn, FilesOut int
	// FilesDropped of the inputs were dropped whole by retention.
	FilesDropped int
	// RecordsIn and RecordsOut count the valid records merged (dropped
	// files' records are counted in RecordsDropped instead).
	RecordsIn, RecordsOut int
	// Events is the number of events written out.
	Events int64
	// Markers is the number of recovery markers carried over.
	Markers int
	// Healths is the number of health snapshots carried over.
	Healths int
	// Alerts is the number of threshold alerts carried over.
	Alerts int
	// EventsDropped and RecordsDropped count what retention dropped
	// this pass (the tombstone carries the cumulative totals).
	EventsDropped, RecordsDropped int64
	// TombstoneHorizon is the retention horizon recorded in the
	// directory's tombstone after this pass (0 when the directory has
	// none).
	TombstoneHorizon int64
	// BytesReclaimed is the input bytes minus the output bytes — what
	// the pass actually shrank the directory by.
	BytesReclaimed int64
	// DroppedPreReset counts events discarded under DropBelowReset.
	DroppedPreReset int
	// CorruptDropped counts CRC-corrupt input records left behind —
	// they were unreadable before compaction and stay unreadable; the
	// compactor does not copy damage forward.
	CorruptDropped int
	// DuplicatesDropped counts exact duplicate events collapsed from
	// the inputs — the leftovers of a previously interrupted
	// compaction.
	DuplicatesDropped int
	// IndexUpdated reports that the directory's index file was brought
	// in step (only attempted when one exists).
	IndexUpdated bool

	// outSummaries carries the staged outputs' file summaries from the
	// writer to the index update.
	outSummaries []export.FileSummary
}

// String renders the result for CLI output.
func (r Result) String() string {
	if r.FilesIn == 0 {
		return "compact: nothing to do (fewer than two eligible files)"
	}
	s := fmt.Sprintf("compact: %d files (%d records) -> %d files (%d records), %d events, %d markers",
		r.FilesIn, r.RecordsIn, r.FilesOut, r.RecordsOut, r.Events, r.Markers)
	if r.Healths > 0 {
		s += fmt.Sprintf(", %d health snapshots", r.Healths)
	}
	if r.Alerts > 0 {
		s += fmt.Sprintf(", %d alerts", r.Alerts)
	}
	if r.FilesDropped > 0 {
		s += fmt.Sprintf(", %d files (%d records, %d events) dropped below retention horizon %d",
			r.FilesDropped, r.RecordsDropped, r.EventsDropped, r.TombstoneHorizon)
	}
	if r.DroppedPreReset > 0 {
		s += fmt.Sprintf(", %d pre-reset events dropped", r.DroppedPreReset)
	}
	if r.CorruptDropped > 0 {
		s += fmt.Sprintf(", %d corrupt records dropped", r.CorruptDropped)
	}
	if r.DuplicatesDropped > 0 {
		s += fmt.Sprintf(", %d duplicate events collapsed", r.DuplicatesDropped)
	}
	if r.IndexUpdated {
		s += ", index updated"
	}
	return s
}

// input is one scanned eligible file: its header-only summary plus the
// byte locations of its segment records, and whether retention drops
// it.
type input struct {
	name string
	fs   export.FileSummary
	locs []export.SegmentLocation
	drop bool
}

// Dir compacts the eligible rotated files of an export directory. It
// is a no-op (nil error, zero Result) when fewer than two files are
// eligible for merging and retention drops nothing. The directory's
// index file, when present, is updated to describe the outputs.
func Dir(dir string, cfg Config) (*Result, error) {
	res, err := run(dir, cfg)
	if err != nil && cfg.Obs != nil {
		// Every failure path counts, whichever phase it died in; the
		// directory is left retriable (inputs are only removed after
		// outputs are installed, and staging is cleared on the next
		// attempt).
		cfg.Obs.Counter("compact_errors_total").Inc()
	}
	return res, err
}

func run(dir string, cfg Config) (*Result, error) {
	switch {
	case cfg.KeepNewest == 0:
		cfg.KeepNewest = 1 // the safe default: never the active segment
	case cfg.KeepNewest < 0:
		cfg.KeepNewest = 0 // explicit opt-in: closed directory, compact all
	}
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = export.DefaultMaxFileBytes
	}
	if cfg.ChunkEvents <= 0 {
		cfg.ChunkEvents = DefaultChunkEvents
	}
	// A crashed previous run may have left a staging dir with outputs
	// it never installed; they were never visible and are rebuilt.
	tmpDir := filepath.Join(dir, tmpDirName)
	if err := os.RemoveAll(tmpDir); err != nil {
		return nil, fmt.Errorf("compact: clear staging dir: %w", err)
	}
	names, err := export.WALFiles(dir)
	if err != nil {
		return nil, err
	}
	eligibleNames := names
	if cfg.KeepNewest > 0 {
		if cfg.KeepNewest >= len(names) {
			return &Result{}, nil
		}
		eligibleNames = names[:len(names)-cfg.KeepNewest]
	}
	if len(eligibleNames) == 0 {
		return &Result{}, nil
	}

	// Phase 1: header-only discovery. No payload is decoded here; the
	// scan yields each file's summary (ranges, marker/health/tombstone
	// offsets) and its segment-record cursor table.
	inputs := make([]input, 0, len(eligibleNames))
	for i, name := range eligibleNames {
		fs, locs, err := export.ScanFileRecords(name)
		if err != nil {
			return nil, err
		}
		if fs.Torn && !(cfg.KeepNewest == 0 && i == len(eligibleNames)-1) {
			return nil, fmt.Errorf("compact: %s: torn record in a rotated file — corruption, not a crash tail", name)
		}
		inputs = append(inputs, input{name: name, fs: fs, locs: locs})
	}

	// Partition into retention-dropped and kept-for-merge.
	var dropped, keep []input
	for i := range inputs {
		if inputs[i].drop = droppable(inputs[i], cfg); inputs[i].drop {
			dropped = append(dropped, inputs[i])
		} else {
			keep = append(keep, inputs[i])
		}
	}
	if len(dropped) == 0 && len(keep) < 2 {
		return &Result{}, nil
	}

	res := &Result{FilesIn: len(inputs), FilesDropped: len(dropped)}
	var bytesIn int64
	for _, in := range inputs {
		if info, err := os.Stat(in.name); err == nil {
			bytesIn += info.Size()
		}
	}

	// One pass over the inputs' annotations. Prior tombstones fold
	// forward from every input — including dropped ones, or truncation
	// history would vanish with the file that carried it; the other
	// kinds come from kept files only, since dropped files' copies lie
	// below the retention floor by construction.
	anns, err := readAnnotations(inputs, res)
	if err != nil {
		return nil, err
	}
	var priors []export.Tombstone
	carried := anns[:0]
	horizons := make(map[string]int64)
	for _, a := range anns {
		switch {
		case a.Tombstone != nil:
			priors = append(priors, *a.Tombstone)
			continue
		case a.Marker != nil:
			res.Markers++
			if cfg.DropBelowReset {
				horizons[a.Marker.Monitor] = max(horizons[a.Marker.Monitor], a.Marker.Horizon)
			}
		case a.Health != nil:
			res.Healths++
		case a.Alert != nil:
			res.Alerts++
		}
		carried = append(carried, a)
	}
	tomb := foldTombstone(priors, dropped, res)

	outs, err := writeOutputs(tmpDir, cfg, keep, tomb, carried, horizons, res)
	if err != nil {
		return nil, err
	}
	// Install under fresh names, delete inputs only afterwards. The
	// j-th output takes the j-th input's number plus a generation
	// suffix no existing file carries, so no rename ever lands on a
	// live file — a crash at any point leaves a superset of the
	// original records (duplicates, which replay collapses), never a
	// subset. A pass re-chunking into smaller records can produce more
	// outputs than inputs; the extras stack further generation
	// suffixes onto the last input's number, which keeps them sorted
	// in creation order and still ahead of every untouched newer file.
	// The tombstone is the first record of the first output, which
	// takes the lowest input number: it sorts ahead of every surviving
	// segment, exactly where every reader starts.
	gen := nextGeneration(names)
	installed := make([]string, 0, len(outs))
	for i, out := range outs {
		base, g := inputs[len(inputs)-1].name, gen+1+(i-len(inputs))
		if i < len(inputs) {
			base, g = inputs[i].name, gen
		}
		target, err := outputName(base, g)
		if err != nil {
			return nil, err
		}
		if err := os.Rename(out, target); err != nil {
			return nil, fmt.Errorf("compact: install output: %w", err)
		}
		installed = append(installed, target)
	}
	for _, in := range inputs {
		if err := os.Remove(in.name); err != nil {
			return nil, fmt.Errorf("compact: remove merged input: %w", err)
		}
	}
	if err := os.RemoveAll(tmpDir); err != nil {
		return nil, fmt.Errorf("compact: clear staging dir: %w", err)
	}
	res.FilesOut = len(outs)
	var bytesOut int64
	for _, name := range installed {
		if info, err := os.Stat(name); err == nil {
			bytesOut += info.Size()
		}
	}
	res.BytesReclaimed = bytesIn - bytesOut
	if cfg.Obs != nil {
		cfg.Obs.Counter("compact_passes_total").Inc()
		cfg.Obs.Counter("compact_bytes_reclaimed_total").Add(res.BytesReclaimed)
	}

	if err := updateIndex(dir, inputs, installed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// droppable reports whether retention may drop the file whole: every
// horizon its summary carries lies strictly below the sequence floor,
// or its mtime predates the age floor. Torn files are never dropped
// (their summary covers an unknown whole), and tombstone records never
// block a drop — they are folded forward, not lost.
func droppable(in input, cfg Config) bool {
	if in.fs.Torn {
		return false
	}
	if cfg.RetainSeq > 0 && belowFloor(in.fs, cfg.RetainSeq) {
		return true
	}
	if !cfg.RetainBefore.IsZero() {
		if info, err := os.Stat(in.name); err == nil && info.ModTime().Before(cfg.RetainBefore) {
			return true
		}
	}
	return false
}

// belowFloor reports whether every content horizon of the summary is
// strictly below the sequence floor.
func belowFloor(fs export.FileSummary, floor int64) bool {
	if fs.Events > 0 && fs.MaxSeq >= floor {
		return false
	}
	for _, a := range fs.Annotations {
		if a.Kind != export.KindTombstone && a.Horizon >= floor {
			return false
		}
	}
	return true
}

// readAnnotations point-reads the inputs' annotation records at their
// scanned offsets — no segment payload is decoded — in input and record
// order: every tombstone, and the other kinds of kept inputs only.
// Exact duplicates (the leftovers of an interrupted earlier compaction)
// collapse to their first occurrence. A CRC-corrupt record is skipped
// and counted like any other corrupt record.
func readAnnotations(inputs []input, res *Result) ([]export.Record, error) {
	var anns []export.Record
	seen := make(map[string]bool)
	for _, in := range inputs {
		for _, ai := range in.fs.Annotations {
			if in.drop && ai.Kind != export.KindTombstone {
				continue
			}
			a, err := export.ReadRecordAt(in.name, ai.Offset)
			if err != nil {
				if errors.Is(err, export.ErrCorruptRecord) {
					res.CorruptDropped++
					continue
				}
				return nil, err
			}
			if ai.Kind != export.KindTombstone {
				res.RecordsIn++
			}
			if k := a.Key(); !seen[k] {
				seen[k] = true
				anns = append(anns, a)
			}
		}
	}
	return anns, nil
}

// foldTombstone merges the prior tombstones and this pass's drops into
// the single tombstone the outputs will carry (nil when the directory
// has no truncation history and nothing was dropped). Prior tombstones
// are generations of each other — each pass folds its predecessor —
// so the maximal one is the live state; an interrupted install can
// leave two generations visible, and picking the maximal (rather than
// summing) keeps the counters from double-counting. When this pass
// drops nothing the prior tombstone is carried through unchanged, so
// reruns converge byte-identically.
func foldTombstone(priors []export.Tombstone, dropped []input, res *Result) *export.Tombstone {
	var base *export.Tombstone
	for i := range priors {
		if base == nil || newerTombstone(priors[i], *base) {
			base = &priors[i]
		}
	}
	if len(dropped) == 0 {
		if base != nil {
			res.TombstoneHorizon = base.Horizon
		}
		return base
	}
	var t export.Tombstone
	if base != nil {
		t = *base
	}
	orig := t
	mons := make(map[string]*export.TruncatedRange, len(t.Monitors))
	for i := range t.Monitors {
		mons[t.Monitors[i].Monitor] = &t.Monitors[i]
	}
	maxDropSeq := t.Horizon - 1 // keeps the horizon monotonic
	for _, in := range dropped {
		records := int64(in.fs.Records)
		for _, a := range in.fs.Annotations {
			if a.Kind == export.KindTombstone {
				records--
			} else if a.Horizon > maxDropSeq {
				maxDropSeq = a.Horizon
			}
		}
		if records > 0 {
			// A tombstone-only file is infrastructure, not data: removing
			// it folds its record forward rather than dropping anything.
			t.Files++
			t.Records += records
			t.Events += in.fs.Events
			res.RecordsDropped += records
			res.EventsDropped += in.fs.Events
		}
		if in.fs.Events > 0 && in.fs.MaxSeq > maxDropSeq {
			maxDropSeq = in.fs.MaxSeq
		}
		for _, mr := range in.fs.Monitors {
			tr := mons[mr.Monitor]
			if tr == nil {
				t.Monitors = append(t.Monitors, export.TruncatedRange{
					Monitor: mr.Monitor, MinSeq: mr.MinSeq, MaxSeq: mr.MaxSeq, Events: mr.Events,
				})
				// The map must point into the (possibly reallocated) slice.
				mons = make(map[string]*export.TruncatedRange, len(t.Monitors))
				for i := range t.Monitors {
					mons[t.Monitors[i].Monitor] = &t.Monitors[i]
				}
				continue
			}
			tr.MinSeq = min(tr.MinSeq, mr.MinSeq)
			tr.MaxSeq = max(tr.MaxSeq, mr.MaxSeq)
			tr.Events += mr.Events
		}
	}
	if t.Files == orig.Files && t.Records == orig.Records && t.Events == orig.Events &&
		maxDropSeq == orig.Horizon-1 {
		// Only tombstone-carrying infrastructure files were removed —
		// nothing actually truncated — so the prior tombstone is carried
		// through byte-identically (same At), keeping reruns convergent.
		if base != nil {
			res.TombstoneHorizon = base.Horizon
		}
		return base
	}
	t.Horizon = maxDropSeq + 1
	t.At = time.Now().UTC()
	sort.Slice(t.Monitors, func(i, j int) bool {
		return t.Monitors[i].Monitor < t.Monitors[j].Monitor
	})
	res.TombstoneHorizon = t.Horizon
	return &t
}

// newerTombstone reports whether a supersedes b. Generational folding
// makes every field of the successor >= its predecessor's, so any
// lexicographic order over them picks the live generation.
func newerTombstone(a, b export.Tombstone) bool {
	if a.Horizon != b.Horizon {
		return a.Horizon > b.Horizon
	}
	if a.Files != b.Files {
		return a.Files > b.Files
	}
	if a.Records != b.Records {
		return a.Records > b.Records
	}
	if a.Events != b.Events {
		return a.Events > b.Events
	}
	return a.At.After(b.At)
}

// monCursor walks one input file's segment records of one monitor in
// sequence order, decoding one record at a time through the shared
// per-file RecordReader — the unit of the merge's memory bound.
type monCursor struct {
	rr   *export.RecordReader
	locs []export.SegmentLocation
	next int
	buf  event.Seq
	pos  int
}

// peek returns the cursor's current event, decoding the next record
// when the buffered one is exhausted. A CRC-corrupt record is skipped
// and counted; ok=false means the cursor is drained.
func (c *monCursor) peek(res *Result) (e event.Event, ok bool, err error) {
	for {
		if c.pos < len(c.buf) {
			return c.buf[c.pos], true, nil
		}
		if c.next >= len(c.locs) {
			return event.Event{}, false, nil
		}
		loc := c.locs[c.next]
		c.next++
		rec, err := c.rr.ReadAt(loc.Offset)
		if err != nil {
			if errors.Is(err, export.ErrCorruptRecord) {
				res.CorruptDropped++
				continue
			}
			return event.Event{}, false, err
		}
		if rec.Segment == nil {
			return event.Event{}, false, fmt.Errorf("compact: offset %d: expected a segment record", loc.Offset)
		}
		res.RecordsIn++
		c.buf = rec.Segment.Events
		c.pos = 0
	}
}

// writeOutputs streams the merged monitors, the folded tombstone and
// the carried annotations through a WALSink in the staging directory
// and returns the output paths in creation order. The sink fsyncs each
// file as it rotates, so everything returned is durable. Record
// order: tombstone first (the lowest-numbered output must carry it),
// then each monitor's chunked stream in order of first event, then the
// annotations in their input record order.
func writeOutputs(tmpDir string, cfg Config, keep []input, tomb *export.Tombstone,
	anns []export.Record, horizons map[string]int64, res *Result) ([]string, error) {
	var summaries []export.FileSummary
	sink, err := export.NewWALSink(tmpDir, export.WALConfig{
		MaxFileBytes: cfg.MaxFileBytes,
		OnSeal: []export.SealedSink{export.SealedSinkFunc(func(fs export.FileSummary) error {
			summaries = append(summaries, fs)
			return nil
		})},
	})
	if err != nil {
		return nil, err
	}
	if tomb != nil {
		if err := sink.WriteTombstone(*tomb); err != nil {
			return nil, err
		}
		res.RecordsOut++
	}

	// One open cursor table per monitor, one cursor per file that holds
	// the monitor: the per-file location lists come from the header
	// scan, sorted by first sequence number.
	readers := make([]*export.RecordReader, len(keep))
	defer func() {
		for _, rr := range readers {
			if rr != nil {
				rr.Close()
			}
		}
	}()
	type monSource struct {
		file int
		locs []export.SegmentLocation
	}
	byMon := make(map[string][]monSource)
	monMin := make(map[string]int64)
	var monOrder []string
	for fi, in := range keep {
		perMon := make(map[string][]export.SegmentLocation)
		for _, loc := range in.locs {
			perMon[loc.Monitor] = append(perMon[loc.Monitor], loc)
		}
		for mon, locs := range perMon {
			sort.Slice(locs, func(i, j int) bool {
				if locs[i].First != locs[j].First {
					return locs[i].First < locs[j].First
				}
				return locs[i].Offset < locs[j].Offset
			})
			if _, seen := byMon[mon]; !seen {
				monOrder = append(monOrder, mon)
				monMin[mon] = locs[0].First
			} else if locs[0].First < monMin[mon] {
				monMin[mon] = locs[0].First
			}
			byMon[mon] = append(byMon[mon], monSource{file: fi, locs: locs})
		}
	}
	// Write monitors in order of their first event so output files'
	// seq ranges grow roughly with file number — the shape the windowed
	// reader prunes best.
	sort.SliceStable(monOrder, func(i, j int) bool { return monMin[monOrder[i]] < monMin[monOrder[j]] })

	reader := func(fi int) (*export.RecordReader, error) {
		if readers[fi] == nil {
			rr, err := export.OpenRecordReader(keep[fi].name)
			if err != nil {
				return nil, err
			}
			readers[fi] = rr
		}
		return readers[fi], nil
	}

	chunk := make(event.Seq, 0, cfg.ChunkEvents)
	for _, mon := range monOrder {
		cursors := make([]*monCursor, 0, len(byMon[mon]))
		for _, src := range byMon[mon] {
			rr, err := reader(src.file)
			if err != nil {
				return nil, err
			}
			cursors = append(cursors, &monCursor{rr: rr, locs: src.locs})
		}
		flush := func() error {
			if len(chunk) == 0 {
				return nil
			}
			if err := sink.WriteSegment(export.Segment{Monitor: mon, Events: chunk}); err != nil {
				return err
			}
			res.RecordsOut++
			res.Events += int64(len(chunk))
			chunk = chunk[:0]
			return nil
		}
		var last event.Event
		haveLast := false
		for {
			best := -1
			var be event.Event
			for i, c := range cursors {
				e, ok, err := c.peek(res)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				if best < 0 || e.Seq < be.Seq {
					best, be = i, e
				}
			}
			if best < 0 {
				break
			}
			cursors[best].pos++
			if haveLast && be.Seq == last.Seq {
				// Collapse exact duplicates (an interrupted earlier
				// compaction); a seq collision between different events is
				// corruption.
				if be != last {
					return nil, fmt.Errorf("compact: monitor %q: two different events share sequence number %d", mon, be.Seq)
				}
				res.DuplicatesDropped++
				continue
			}
			last, haveLast = be, true
			if h := horizons[mon]; h > 0 && be.Seq <= h {
				res.DroppedPreReset++
				continue
			}
			chunk = append(chunk, be)
			if len(chunk) >= cfg.ChunkEvents {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}

	for _, a := range anns {
		if err := a.Apply(sink); err != nil {
			return nil, err
		}
		res.RecordsOut++
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	outs := make([]string, 0, len(summaries))
	for _, fs := range summaries {
		outs = append(outs, filepath.Join(tmpDir, fs.Name))
	}
	res.outSummaries = summaries
	return outs, nil
}

// Compacted files carry a generation suffix: "00000007-0002.wal" is
// the generation-2 compaction output that reused input number 7. The
// '-' sorts before the '.' of a plain "00000007.wal", so an output
// sorts just before the input it supersedes — always ahead of the
// untouched newer files, keeping the directory's only torn-tail
// candidate (the newest file) last. NewWALSink's resume parse reads
// the leading number and ignores the suffix, so appending to a
// compacted directory keeps numbering safely past every name.

// nextGeneration returns one more than the highest generation suffix
// among the given file names (1 when none carry one).
func nextGeneration(names []string) int {
	gen := 0
	for _, name := range names {
		stem := strings.TrimSuffix(filepath.Base(name), ".wal")
		if i := strings.IndexByte(stem, '-'); i >= 0 {
			var g int
			if _, err := fmt.Sscanf(stem[i+1:], "%d", &g); err == nil && g > gen {
				gen = g
			}
		}
	}
	return gen + 1
}

// outputName builds the fresh installed name for an output reusing the
// given input's number at the given generation.
func outputName(input string, gen int) (string, error) {
	stem := strings.TrimSuffix(filepath.Base(input), ".wal")
	if i := strings.IndexByte(stem, '-'); i >= 0 {
		stem = stem[:i] // an input that is itself a compacted file
	}
	var num int
	if _, err := fmt.Sscanf(stem, "%d", &num); err != nil {
		return "", fmt.Errorf("compact: unparseable segment name %q", input)
	}
	return filepath.Join(filepath.Dir(input), fmt.Sprintf("%08d-%04d.wal", num, gen)), nil
}

// updateIndex brings the directory's index (when one exists) in step
// with the swap: entries of all processed inputs are dropped and the
// outputs' summaries added under their installed names.
func updateIndex(dir string, inputs []input, installed []string, res *Result) error {
	idx, err := index.Load(dir)
	if err != nil {
		if !errors.Is(err, index.ErrNoIndex) {
			// A damaged index is simply removed: it is advisory and
			// rebuildable, and leaving it would cost a hard OpenDir error
			// forever.
			_ = os.Remove(filepath.Join(dir, index.FileName))
		}
		return nil
	}
	for _, in := range inputs {
		idx.Remove(filepath.Base(in.name))
	}
	for i, fs := range res.outSummaries {
		fs.Name = filepath.Base(installed[i])
		idx.Add(fs)
	}
	if err := idx.Write(dir); err != nil {
		return fmt.Errorf("compact: update index: %w", err)
	}
	res.IndexUpdated = true
	return nil
}
