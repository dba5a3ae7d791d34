package export

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// File summaries — the per-file metadata the trace-store index is made
// of. A FileSummary is produced two ways that must agree byte for
// byte: incrementally by WALSink as it writes (handed to
// WALConfig.OnSeal consumers when the file is sealed), and by
// ScanFile reading
// an existing file's record headers back — which is what makes an
// index rebuildable from any WAL directory, no matter who wrote it.

// MonitorRange is one monitor's slice of a WAL file: which sequence
// numbers of that monitor the file's segment records cover, and how
// many events that is. Ranges let a windowed reader skip a file even
// when the query filters by monitor, not just by sequence window.
type MonitorRange struct {
	// Monitor names the monitor.
	Monitor string
	// MinSeq and MaxSeq bound the monitor's event sequence numbers in
	// this file (inclusive).
	MinSeq, MaxSeq int64
	// Events counts the monitor's events in this file.
	Events int64
}

// AnnotationInfo locates one annotation record (recovery marker, health
// snapshot, retention tombstone or threshold alert) inside a WAL file.
// Every field but the offset comes from the record header, so the
// index places an annotation without decoding its payload; the byte
// offset lets a windowed reader point-read it (ReadRecordAt) from a
// file it otherwise skips.
type AnnotationInfo struct {
	// Kind is the record's kind.
	Kind Kind
	// Monitor names the reset monitor of a marker (empty for the other
	// kinds, which describe the whole pipeline or store).
	Monitor string
	// Horizon is the record's sequence horizon: a marker's reset
	// horizon, a snapshot's or alert's capture horizon, a tombstone's
	// retention horizon.
	Horizon int64
	// Offset is the record's byte offset from the start of the file.
	Offset int64
}

// FileSummary describes one sealed WAL segment file: everything a
// reader needs to decide whether the file can possibly matter to a
// windowed query, without opening it.
type FileSummary struct {
	// Name is the file's base name ("00000012.wal").
	Name string
	// Version is the file's WAL format version.
	Version byte
	// Size is the file's length in bytes. A reader compares it against
	// the file on disk as the cheap staleness check: a summary whose
	// size disagrees describes some earlier file of the same name
	// (compaction reuses names) and must not be trusted.
	Size int64
	// Records counts the file's valid records (segments + annotations).
	Records int
	// Events counts events across all segment records.
	Events int64
	// MinSeq and MaxSeq bound the sequence numbers of the file's
	// segment records (both zero when the file holds only annotations).
	MinSeq, MaxSeq int64
	// Monitors lists the per-monitor ranges, sorted by monitor name.
	Monitors []MonitorRange
	// Annotations locates the file's annotation records in record
	// order.
	Annotations []AnnotationInfo
	// HeaderCRC is the CRC-32 (IEEE) over the file's record headers,
	// concatenated in record order — the header chain. It pins the
	// file's record structure: verifying it needs only a header scan
	// (payloads are skipped), and a summary whose chain disagrees with
	// the file is stale even if the sizes happen to match.
	HeaderCRC uint32
	// Torn reports that a scan ended at a torn tail; the summary covers
	// the valid prefix. Sink-produced summaries are never torn.
	Torn bool
}

// Covers reports whether any of the file's segment events can fall in
// the sequence window [minSeq, maxSeq] restricted to the given
// monitors (no monitors = all monitors).
func (s FileSummary) Covers(minSeq, maxSeq int64, monitors map[string]bool) bool {
	if s.Events == 0 {
		return false
	}
	if len(monitors) == 0 {
		return s.MinSeq <= maxSeq && s.MaxSeq >= minSeq
	}
	for _, mr := range s.Monitors {
		if monitors[mr.Monitor] && mr.MinSeq <= maxSeq && mr.MaxSeq >= minSeq {
			return true
		}
	}
	return false
}

// summaryBuilder accumulates a FileSummary record by record. The zero
// value is not ready; use newSummaryBuilder.
type summaryBuilder struct {
	sum  FileSummary
	mons map[string]*MonitorRange
}

func newSummaryBuilder(name string, version byte) *summaryBuilder {
	return &summaryBuilder{
		sum:  FileSummary{Name: name, Version: version},
		mons: make(map[string]*MonitorRange, 4),
	}
}

// name returns mon as a string: the summary's own key when the file
// already holds a segment of that monitor, else a fresh copy. A nil
// builder always copies. The table is the summary's, which holds one
// entry per monitor with a segment in the file, so a stream of
// received records adds no table of its own.
func (b *summaryBuilder) name(mon []byte) string {
	if b != nil {
		if mr, ok := b.mons[string(mon)]; ok {
			return mr.Monitor
		}
	}
	return string(mon)
}

// add folds one record (its decoded header and byte offset) into the
// summary.
func (b *summaryBuilder) add(h *recHeader, offset int64) {
	b.sum.Records++
	b.sum.HeaderCRC = crc32.Update(b.sum.HeaderCRC, crc32.IEEETable, h.raw)
	if h.typ != KindSegment {
		b.sum.Annotations = append(b.sum.Annotations, AnnotationInfo{
			Kind: h.typ, Monitor: h.monitor, Horizon: h.first, Offset: offset,
		})
		return
	}
	if b.sum.Events == 0 {
		b.sum.MinSeq, b.sum.MaxSeq = h.first, h.last
	} else {
		b.sum.MinSeq = min(b.sum.MinSeq, h.first)
		b.sum.MaxSeq = max(b.sum.MaxSeq, h.last)
	}
	b.sum.Events += int64(h.count)
	mr := b.mons[h.monitor]
	if mr == nil {
		mr = &MonitorRange{Monitor: h.monitor, MinSeq: h.first, MaxSeq: h.last}
		b.mons[h.monitor] = mr
	} else {
		mr.MinSeq = min(mr.MinSeq, h.first)
		mr.MaxSeq = max(mr.MaxSeq, h.last)
	}
	mr.Events += int64(h.count)
}

// done finalises the summary at the given file size.
func (b *summaryBuilder) done(size int64, torn bool) FileSummary {
	s := b.sum
	s.Size = size
	s.Torn = torn
	if len(b.mons) == 0 {
		// Nil, not empty: the codec decodes an absent section to nil, and
		// the two producers of a summary must agree structurally too.
		return s
	}
	s.Monitors = make([]MonitorRange, 0, len(b.mons))
	for _, mr := range b.mons {
		s.Monitors = append(s.Monitors, *mr)
	}
	sort.Slice(s.Monitors, func(i, j int) bool {
		return s.Monitors[i].Monitor < s.Monitors[j].Monitor
	})
	return s
}

// ScanFile summarises one WAL file by reading record headers only —
// payloads are skipped, not decoded and not CRC-checked, so a scan
// costs a fraction of a replay. It is how an index is rebuilt from an
// existing directory (WAL format v1 and v2 files alike). A torn tail ends the
// scan with the valid prefix summarised and Torn set; the caller
// decides whether a torn file is acceptable. Note a CRC-corrupt record
// still contributes its header to the summary — the index admits the
// file, and the replaying reader skips the record. The index
// deliberately over-admits rather than under-admits.
func ScanFile(name string) (FileSummary, error) {
	fs, _, err := ScanFileRecords(name)
	return fs, err
}

// SegmentLocation locates one segment record inside a WAL file — the
// header fields a streaming merge needs to order and size the record,
// plus the byte offset to point-read it later (RecordReader.ReadAt).
// Locations stay out of FileSummary (and therefore out of the index)
// on purpose: they are per-pass scaffolding for the compactor, not
// durable metadata.
type SegmentLocation struct {
	// Monitor names the record's monitor.
	Monitor string
	// First and Last bound the record's sequence numbers (inclusive).
	First, Last int64
	// Count is the record's event count.
	Count uint32
	// Offset is the record's byte offset from the start of the file.
	Offset int64
}

// ScanFileRecords is ScanFile plus the byte locations of every segment
// record — the header-only discovery pass of the streaming compactor:
// one scan yields both the file's summary (annotations, ranges) and
// the per-segment cursor table a bounded-RAM k-way merge reads
// through.
func ScanFileRecords(name string) (FileSummary, []SegmentLocation, error) {
	f, err := os.Open(name)
	if err != nil {
		return FileSummary{}, nil, fmt.Errorf("export: open wal file: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		// Torn magic (crash right after creation): an empty summary.
		b := newSummaryBuilder(baseName(name), 0)
		return b.done(0, true), nil, nil
	}
	version, err := walVersion(name, magic)
	if err != nil {
		return FileSummary{}, nil, err
	}
	b := newSummaryBuilder(baseName(name), version)
	var locs []SegmentLocation
	offset := int64(len(magic))
	for {
		h, err := readHeader(br, version)
		if err != nil {
			if err == io.EOF {
				return b.done(offset, false), locs, nil // clean record boundary
			}
			return b.done(offset, true), locs, nil
		}
		if _, err := io.CopyN(io.Discard, br, int64(h.payloadLen)); err != nil {
			return b.done(offset, true), locs, nil
		}
		if h.typ == KindSegment {
			locs = append(locs, SegmentLocation{
				Monitor: h.monitor, First: h.first, Last: h.last,
				Count: h.count, Offset: offset,
			})
		}
		b.add(h, offset)
		offset += int64(len(h.raw)) + int64(h.payloadLen)
	}
}
