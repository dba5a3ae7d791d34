package index

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"robustmon/internal/event"
	"robustmon/internal/export"
)

// SeekReader answers windowed replay queries over an export directory:
// ReplayRange(minSeq, maxSeq, monitors...) opens only the segment
// files whose indexed ranges can intersect the window, scans the
// (hopefully few) files the index does not cover, and point-reads the
// annotation records of skipped files (recovery markers, health
// snapshots, tombstones, alerts) through their indexed byte offsets.
// Construct with OpenDir. Not safe for concurrent use.
type SeekReader struct {
	dir   string
	idx   *Index
	stats Stats

	// readFile is the full-file read, swappable so tests can prove
	// which files a query actually opened.
	readFile func(name string) (*export.FileReplay, error)
}

// Stats accounts one ReplayRange call — the proof that the index
// pruned. FilesTotal is the directory's segment-file count; Opened of
// those were fully read (because the index admitted them or did not
// cover them — the Unindexed subset); Skipped were excluded by the
// index without being opened; AnnotationReads counts the point-reads
// of annotation records into otherwise skipped files.
type Stats struct {
	FilesTotal, Opened, Skipped, Unindexed int
	AnnotationReads                        int
}

// OpenDir opens the directory for windowed reads, loading its index.
// A directory with no index (or one of another format version) still
// works — every query then scans every file, exactly like ReadDir — so
// OpenDir only fails on a *damaged* index or an unreadable directory.
func OpenDir(dir string) (*SeekReader, error) {
	if _, err := export.WALFiles(dir); err != nil {
		return nil, err
	}
	idx, err := Load(dir)
	if err != nil {
		if !errors.Is(err, ErrNoIndex) {
			// "No index" is fine (scan everything); "index present but
			// unreadable" is refused — the operator should rebuild rather
			// than silently pay full scans forever.
			return nil, err
		}
		idx = nil
	}
	return &SeekReader{
		dir:      dir,
		idx:      idx,
		readFile: export.ReadWALFile,
	}, nil
}

// Index returns the loaded index (nil when the directory has none).
func (r *SeekReader) Index() *Index { return r.idx }

// LastStats returns the accounting of the most recent ReplayRange.
func (r *SeekReader) LastStats() Stats { return r.stats }

// ReplayRange replays the window [minSeq, maxSeq] of the directory's
// trace, optionally restricted to the named monitors. minSeq <= 0
// means from the beginning; maxSeq <= 0 means to the end. The result
// is exactly ReadDir's Replay filtered to the window — same merge,
// same duplicate collapsing, same crash-tail tolerance on the newest
// file — except that Replay.Markers carries every marker matching the
// monitor filter regardless of its horizon: a reset before, inside or
// after the window can all make the window's violations artefacts,
// and the caller needs to know. Replay.Healths is windowed by each
// snapshot's sequence horizon (health records are per-process, so the
// monitor filter does not apply to them); a from-the-beginning query
// also admits horizon-0 snapshots captured before the first event.
// Replay.Alerts is windowed the same way; Replay.Tombstones holds every
// tombstone whatever the window.
//
// Admission is per file. An indexed, size-validated file is opened
// only if one of its (per-monitor, when filtering) sequence ranges
// intersects the window; a file whose only relevant content is
// annotations has them point-read at their indexed offsets instead of
// being decoded. Files the index does not cover — the active segment, files
// newer than the last index write, files whose on-disk size disagrees
// with their entry (compaction reuses names) — are scanned like ReadDir
// would. The index can only ever over-admit, never under-admit, so the
// replayed window is complete whatever state the index is in.
func (r *SeekReader) ReplayRange(minSeq, maxSeq int64, monitors ...string) (*export.Replay, error) {
	if minSeq <= 0 {
		minSeq = 1
	}
	if maxSeq <= 0 {
		maxSeq = math.MaxInt64
	}
	var monSet map[string]bool
	if len(monitors) > 0 {
		monSet = make(map[string]bool, len(monitors))
		for _, m := range monitors {
			monSet[m] = true
		}
	}
	names, err := export.WALFiles(r.dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("index: no wal files in %s", r.dir)
	}
	r.stats = Stats{FilesTotal: len(names)}
	// One admission rule per annotation kind (see above). Tombstones
	// are always admitted: whatever the window, the caller must learn
	// that the store was truncated below the retention horizon, or a
	// below-horizon query would silently read as "nothing happened".
	admit := func(a export.AnnotationInfo) bool {
		switch a.Kind {
		case export.KindMarker:
			return monSet == nil || monSet[a.Monitor]
		case export.KindTombstone:
			return true
		}
		return a.Horizon <= maxSeq && (a.Horizon >= minSeq || minSeq <= 1)
	}
	var payloads []event.Seq
	var anns []export.Record
	var corrupt int
	var truncated string
	for i, name := range names {
		fs, indexed := r.lookup(name)
		if !indexed {
			r.stats.Unindexed++
		}
		if indexed && !fs.Covers(minSeq, maxSeq, monSet) {
			// The segments cannot matter; the annotations still might —
			// fetch those through their indexed offsets without decoding
			// the file.
			for _, a := range fs.Annotations {
				if !admit(a) {
					continue
				}
				rec, err := export.ReadRecordAt(name, a.Offset)
				if err != nil {
					return nil, err
				}
				if got := rec.Info().Kind; got != a.Kind {
					return nil, fmt.Errorf("index: %s offset %d holds a %s record, the index says %s", name, a.Offset, got, a.Kind)
				}
				anns = append(anns, rec)
				r.stats.AnnotationReads++
			}
			r.stats.Skipped++
			continue
		}
		fr, err := r.readFile(name)
		if err != nil {
			return nil, err
		}
		r.stats.Opened++
		if fr.Torn {
			if i != len(names)-1 {
				return nil, fmt.Errorf("index: %s: torn record (not the newest file — corruption, not a crash tail)", name)
			}
			truncated = name
		}
		corrupt += fr.CorruptRecords
		for _, seg := range fr.Segments {
			if monSet != nil && !monSet[seg.Monitor] {
				continue
			}
			if win := seg.Events.SubSeq(minSeq, maxSeq); len(win) > 0 {
				payloads = append(payloads, win)
			}
		}
		for _, a := range fr.Annotations {
			if admit(a.Info()) {
				anns = append(anns, a)
			}
		}
	}
	rep, err := export.MergeReplay(payloads, anns)
	if err != nil {
		return nil, err
	}
	rep.Files, rep.Segments, rep.CorruptRecords = len(names), len(payloads), corrupt
	rep.Recovered, rep.TruncatedFile = truncated != "", truncated
	return rep, nil
}

// lookup resolves the file's index entry, validating it against the
// file on disk: an entry whose recorded size disagrees describes an
// earlier file of the same name and is not trusted.
func (r *SeekReader) lookup(name string) (export.FileSummary, bool) {
	if r.idx == nil {
		return export.FileSummary{}, false
	}
	fs, ok := r.idx.Lookup(filepath.Base(name))
	if !ok {
		return export.FileSummary{}, false
	}
	info, err := os.Stat(name)
	if err != nil || info.Size() != fs.Size || fs.Torn {
		// Torn entries describe a prefix of an unknown whole; scan.
		return export.FileSummary{}, false
	}
	return fs, true
}
