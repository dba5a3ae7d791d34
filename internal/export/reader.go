package export

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// ErrBadWALMagic reports that a file in the export directory does not
// start with the WAL header.
var ErrBadWALMagic = errors.New("export: bad wal magic")

// errCRCMismatch marks a full-length record whose payload failed its
// CRC — damage to one record, not to the file structure: the header
// was plausible and the payload was fully consumed, so the reader is
// positioned at the next record boundary and can keep going. ReadDir
// skips such records and counts them (Replay.CorruptRecords) instead
// of abandoning everything after them.
var errCRCMismatch = errors.New("record CRC mismatch")

// ErrCorruptRecord is the exported identity of a CRC-corrupt record —
// localised damage the caller may skip (errors.Is(err,
// ErrCorruptRecord) holds for the wrapped errors RecordReader and the
// file readers return). The streaming compactor uses it to skip and
// count a damaged record instead of abandoning a pass.
var ErrCorruptRecord = errCRCMismatch

// Replay is the result of reading an export directory back. It is the
// read-side edge of the record path: everything below it handles the
// one decoded form (Record); here the annotations are split into typed
// slices, so offline tooling reads plain fields.
type Replay struct {
	// Events is the recorded trace merged into the global <L order —
	// what history.DB.Full() of a WithFullTrace run would have
	// returned.
	Events event.Seq
	// Markers are the recovery markers found in the WAL, in record
	// order (which is reset order — the exporter's single writer
	// serialises them). Each marks a shard-local online reset: the
	// named monitor's events at or below Marker.Horizon that were still
	// buffered at reset time were discarded unreplayed, so Events has a
	// deliberate gap there and violations straddling the horizon on
	// that monitor may be reset artefacts. Nil for a run that never
	// reset (including every format-v1 WAL).
	Markers []history.RecoveryMarker
	// Healths are the health-snapshot records found in the WAL, in
	// record order (which is capture order — the exporter's single
	// writer serialises them): the run's own metrics timeline. Nil for
	// a run recorded without a health cadence (including every
	// format-v1 WAL).
	Healths []obs.HealthRecord
	// Alerts are the threshold-alert records found in the WAL, in
	// record order (which is transition order — the exporter's single
	// writer serialises them): the run's rule-engine timeline, every
	// fire and clear of the self-watching rules. Nil for a run recorded
	// without rules (including every pre-alert WAL).
	Alerts []obsrules.Alert
	// Tombstones are the retention tombstones found in the WAL, exact
	// duplicates collapsed. A tombstone records a deliberate
	// retention truncation: events below Tombstone.Horizon may be
	// missing from Events by design — disk was reclaimed, not lost.
	// Nil for a store retention never truncated.
	Tombstones []Tombstone
	// Files and Segments count the WAL files and valid segment records
	// read (Segments excludes annotation records).
	Files, Segments int
	// CorruptRecords counts records whose full-length payload failed
	// its CRC — localised damage (a bit flip, a bad sector), not a
	// crash tear, which is always a short read. Each such record is
	// skipped and the reader continues with the next one, so a single
	// corrupt record costs its own events, never the rest of the file.
	CorruptRecords int
	// DuplicateEvents, DuplicateMarkers and DuplicateHealths count
	// identical records collapsed during the merge. Duplicates never occur in a healthy
	// WAL (sequence numbers are globally unique); they are the
	// signature of a compaction interrupted between installing its
	// merged output and unlinking the inputs it replaced — the reader
	// recovers the exact stream either way. A sequence-number collision
	// between *different* events is corruption and an error.
	DuplicateEvents, DuplicateMarkers, DuplicateHealths int
	// DuplicateTombstones and DuplicateAlerts count identical
	// tombstones and alerts collapsed during the merge (the same
	// interrupted-compaction signature as the other duplicate
	// counters).
	DuplicateTombstones, DuplicateAlerts int
	// Recovered reports that the newest file ended in a torn record
	// (crash mid-write); the tail was dropped and Events holds
	// everything up to the last valid record.
	Recovered bool
	// TruncatedFile names the file with the torn tail (empty when
	// Recovered is false).
	TruncatedFile string
}

// RetentionHorizon returns the highest tombstone horizon in the replay
// — the sequence number below which retention may have dropped records
// — or 0 when retention never truncated this store. A windowed query
// whose window starts below this value is incomplete by design.
func (r *Replay) RetentionHorizon() int64 {
	var h int64
	for _, t := range r.Tombstones {
		if t.Horizon > h {
			h = t.Horizon
		}
	}
	return h
}

// add files one annotation under its typed slice, or counts it as a
// duplicate.
func (r *Replay) add(a Record, dup bool) {
	switch {
	case a.Marker != nil && dup:
		r.DuplicateMarkers++
	case a.Marker != nil:
		r.Markers = append(r.Markers, *a.Marker)
	case a.Health != nil && dup:
		r.DuplicateHealths++
	case a.Health != nil:
		r.Healths = append(r.Healths, *a.Health)
	case a.Tombstone != nil && dup:
		r.DuplicateTombstones++
	case a.Tombstone != nil:
		r.Tombstones = append(r.Tombstones, *a.Tombstone)
	case a.Alert != nil && dup:
		r.DuplicateAlerts++
	case a.Alert != nil:
		r.Alerts = append(r.Alerts, *a.Alert)
	}
}

// ReadDir replays an export directory written by WALSink: every valid
// record of every segment file, k-way-merged (event.Merge) back into
// the global sequence order. Records land in the WAL in drain order,
// which may interleave monitors arbitrarily — each record's payload is
// seq-sorted, and the merge restores the total order.
//
// A torn record — short header, short payload, or a zero-filled tail
// block — is tolerated only at the tail of the newest file, where it
// is the expected signature of a crash mid-write: the tail is dropped
// and Replay.Recovered is set. A torn record in any older file is
// corruption and an error. A CRC mismatch over a full-length payload
// (an append-only tear is a prefix, never a full-length scramble) is
// damage to that one record: it is skipped, counted in
// Replay.CorruptRecords, and reading continues with the next record.
func ReadDir(dir string) (*Replay, error) {
	names, err := walFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("export: no %s files in %s", walExt, dir)
	}
	var payloads []event.Seq
	var anns []Record
	var corrupt int
	var truncated string
	for i, name := range names {
		fr, err := ReadWALFile(name)
		if err != nil {
			return nil, err
		}
		if fr.Torn {
			if i != len(names)-1 {
				return nil, fmt.Errorf("export: %s: %w (not the newest file — corruption, not a crash tail)", name, fr.tornErr)
			}
			truncated = name
		}
		for _, seg := range fr.Segments {
			payloads = append(payloads, seg.Events)
		}
		anns = append(anns, fr.Annotations...)
		corrupt += fr.CorruptRecords
	}
	rep, err := MergeReplay(payloads, anns)
	if err != nil {
		return nil, err
	}
	rep.Files, rep.Segments, rep.CorruptRecords = len(names), len(payloads), corrupt
	rep.Recovered, rep.TruncatedFile = truncated != "", truncated
	return rep, nil
}

// MergeReplay assembles per-record event payloads and annotation
// records into the replayed form: events k-way-merged into the global
// <L order with identical duplicates collapsed (and counted), the
// annotations deduplicated on Record.Key preserving first-occurrence
// order and split into Replay's typed slices. It is the shared back
// half of ReadDir and the windowed index.SeekReader; only Events, the
// typed annotation slices and the duplicate counters of the returned
// Replay are populated. A sequence-number collision between two
// different events is an error — that is two runs (or a corrupted
// record) sharing one directory, not a recoverable duplicate. Segment
// records among the annotations are ignored.
func MergeReplay(payloads []event.Seq, annotations []Record) (*Replay, error) {
	rep := &Replay{}
	merged := event.Merge(payloads...)
	out := merged[:0]
	for _, e := range merged {
		if n := len(out); n > 0 && out[n-1].Seq == e.Seq {
			if out[n-1] != e {
				return nil, fmt.Errorf("export: two different events share sequence number %d (monitors %q and %q) — mixed runs or corruption",
					e.Seq, out[n-1].Monitor, e.Monitor)
			}
			rep.DuplicateEvents++
			continue
		}
		out = append(out, e)
	}
	if len(out) > 0 {
		rep.Events = out
	}
	seen := make(map[string]bool, len(annotations))
	for _, a := range annotations {
		k := a.Key()
		rep.add(a, seen[k])
		seen[k] = true
	}
	return rep, nil
}

// FileReplay is one WAL segment file read back on its own — the
// per-file half of ReadDir, exported for the trace-store layers
// (index.SeekReader opens exactly the files its index admits, the
// compactor reads the rotated inputs it is about to merge).
type FileReplay struct {
	// Segments holds the file's valid segment records in record order.
	Segments []Segment
	// Annotations holds the file's valid annotation records (markers,
	// health snapshots, tombstones, alerts) in record order.
	Annotations []Record
	// CorruptRecords counts skipped CRC-corrupt records (see Replay).
	CorruptRecords int
	// Torn reports that the file ends in a torn record; Segments and
	// Annotations hold the valid prefix. Acceptable only for the newest
	// file of a directory — the crash-tail signature — and corruption
	// anywhere else; that verdict is the caller's.
	Torn bool
	// tornErr says how the tail tore (set with Torn).
	tornErr error
}

// ReadWALFile reads one segment file of either format version. A CRC-
// corrupt record is skipped and counted; a torn tail ends the read
// with the valid prefix and Torn set.
func ReadWALFile(name string) (*FileReplay, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("export: open wal file: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var magic [5]byte
	fr := &FileReplay{}
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		// Even the magic can be torn: a crash right after file creation.
		fr.Torn, fr.tornErr = true, fmt.Errorf("torn wal header: %w", err)
		return fr, nil
	}
	version, err := walVersion(name, magic)
	if err != nil {
		return nil, err
	}
	for {
		rec, terr, rerr := readRecord(br, version)
		if rerr != nil {
			if errors.Is(rerr, errCRCMismatch) {
				// Localised damage: the payload was fully consumed, so the
				// stream is at the next record boundary — skip and go on.
				fr.CorruptRecords++
				continue
			}
			return nil, fmt.Errorf("export: %s record %d: %w", name, len(fr.Segments)+len(fr.Annotations)+fr.CorruptRecords, rerr)
		}
		if terr != nil {
			if terr != io.EOF { // EOF exactly at a record boundary: clean end
				fr.Torn, fr.tornErr = true, terr
			}
			return fr, nil
		}
		if rec.Segment != nil {
			fr.Segments = append(fr.Segments, *rec.Segment)
		} else {
			fr.Annotations = append(fr.Annotations, rec)
		}
	}
}

// WALFiles lists the directory's segment files sorted by name — which
// is creation order, since names are zero-padded numbers.
func WALFiles(dir string) ([]string, error) { return walFiles(dir) }

// walVersion validates a file's magic and returns its format version.
func walVersion(name string, magic [5]byte) (byte, error) {
	version := magic[4]
	if [4]byte(magic[:4]) != walMagicPrefix || version < walVersion1 || version > walVersionLatest {
		return 0, fmt.Errorf("%w in %s", ErrBadWALMagic, name)
	}
	return version, nil
}

// recHeader is one decoded record header plus the exact bytes it was
// read from (raw) — the unit of the per-file header chain that the
// index checksums.
type recHeader struct {
	typ         Kind
	monitor     string
	first, last int64
	count       uint32
	payloadLen  uint32
	sum         uint32
	raw         []byte
}

// readHeader reads one record header of the given format version. A
// short read at any point is a torn record and comes back in terr:
// io.EOF exactly at a record boundary (a clean end of file),
// io.ErrUnexpectedEOF or an implausible-header error otherwise. No
// header damage is distinguishable from a tear — arbitrary bytes left
// by a torn tail produce exactly the same shapes — so readHeader never
// reports corruption; that verdict needs the payload CRC.
func readHeader(r io.Reader, version byte) (*recHeader, error) {
	h := &recHeader{typ: KindSegment, raw: make([]byte, 0, 64)}
	var scratch [8]byte
	read := func(n int) error {
		if _, err := io.ReadFull(r, scratch[:n]); err != nil {
			return err
		}
		h.raw = append(h.raw, scratch[:n]...)
		return nil
	}
	if version >= walVersion2 {
		if err := read(1); err != nil {
			return nil, err // io.EOF here = clean boundary
		}
		h.typ = Kind(scratch[0])
		if h.typ > KindAlert {
			// No writer emits such a type, but a torn tail leaves
			// arbitrary bytes behind — torn at the tail, corruption
			// elsewhere (the caller decides which).
			return nil, fmt.Errorf("export: unknown record type %d", h.typ)
		}
	}
	if err := read(2); err != nil {
		if version >= walVersion2 {
			// The type byte was already consumed: EOF here is mid-record.
			err = noEOFBoundary(err)
		}
		return nil, err // v1: io.EOF here = clean boundary
	}
	monLen := int(binary.LittleEndian.Uint16(scratch[:2]))
	if monLen > maxMonitorName {
		// The writer refuses such names, so these bytes were never the
		// start of a record — but a torn header leaves arbitrary bytes
		// behind, so at the tail this still reads as a torn record.
		return nil, fmt.Errorf("export: monitor name %d bytes long (limit %d)", monLen, maxMonitorName)
	}
	mon := make([]byte, monLen)
	if _, err := io.ReadFull(r, mon); err != nil {
		return nil, noEOFBoundary(err)
	}
	h.raw = append(h.raw, mon...)
	h.monitor = string(mon)
	if err := read(8); err != nil {
		return nil, noEOFBoundary(err)
	}
	h.first = int64(binary.LittleEndian.Uint64(scratch[:8]))
	if err := read(8); err != nil {
		return nil, noEOFBoundary(err)
	}
	h.last = int64(binary.LittleEndian.Uint64(scratch[:8]))
	if err := read(4); err != nil {
		return nil, noEOFBoundary(err)
	}
	h.count = binary.LittleEndian.Uint32(scratch[:4])
	if err := read(4); err != nil {
		return nil, noEOFBoundary(err)
	}
	h.payloadLen = binary.LittleEndian.Uint32(scratch[:4])
	if err := read(4); err != nil {
		return nil, noEOFBoundary(err)
	}
	h.sum = binary.LittleEndian.Uint32(scratch[:4])
	if err := h.plausible(); err != nil {
		return nil, err
	}
	return h, nil
}

// recordHeaderSize is the size of a v2 record header less its monitor
// name: type, name length, seq range, count, payload length and CRC.
const recordHeaderSize = 1 + 2 + 8 + 8 + 4 + 4 + 4

// parseHeader parses the v2 record header at the start of b in place,
// as readHeader reads one from bytes.NewReader(b), with the same
// errors: raw is a prefix of b, and the monitor name comes from
// names.name, so a name the current file already holds costs no
// allocation.
func parseHeader(b []byte, names *summaryBuilder) (h recHeader, err error) {
	if len(b) == 0 {
		return h, io.EOF
	}
	h.typ = Kind(b[0])
	if h.typ > KindAlert {
		return h, fmt.Errorf("export: unknown record type %d", h.typ)
	}
	if len(b) < 3 {
		return h, io.ErrUnexpectedEOF
	}
	monLen := int(binary.LittleEndian.Uint16(b[1:3]))
	if monLen > maxMonitorName {
		return h, fmt.Errorf("export: monitor name %d bytes long (limit %d)", monLen, maxMonitorName)
	}
	n := recordHeaderSize + monLen
	if len(b) < n {
		return h, io.ErrUnexpectedEOF
	}
	h.monitor = names.name(b[3 : 3+monLen])
	f := b[3+monLen : n]
	h.first = int64(binary.LittleEndian.Uint64(f))
	h.last = int64(binary.LittleEndian.Uint64(f[8:]))
	h.count = binary.LittleEndian.Uint32(f[16:])
	h.payloadLen = binary.LittleEndian.Uint32(f[20:])
	h.sum = binary.LittleEndian.Uint32(f[24:])
	h.raw = b[:n:n]
	return h, h.plausible()
}

// plausible refuses the header fields no writer produces, the last
// check of both header readers.
func (h *recHeader) plausible() error {
	// Guard the allocation before trusting the length field: a torn or
	// bit-flipped header must not make the reader balloon.
	const maxPayload = 1 << 30
	if h.payloadLen > maxPayload {
		return fmt.Errorf("export: implausible payload length %d", h.payloadLen)
	}
	if h.typ == KindSegment && h.count == 0 {
		// The writer skips empty segments, so no real segment record has
		// count 0 — but a filesystem that zero-fills a torn tail block
		// produces exactly this shape (in v2 the zero fill also reads as
		// type 0 = segment). Torn, not corrupt. Markers and tombstones
		// are exempt: a reset that found nothing buffered legitimately
		// drops 0 events, and a tombstone's count merely mirrors its
		// (possibly zero, possibly saturated) dropped total.
		return fmt.Errorf("export: zero-count record (zero-filled torn tail)")
	}
	return nil
}

// readRecord reads one WAL record of the given format version. A short
// read at any point is a torn record and comes back in terr (io.EOF
// exactly at a record boundary, io.ErrUnexpectedEOF or an
// implausible-header error otherwise); rerr is reserved for damage
// that cannot result from a crashed append — a CRC mismatch over a
// full-length payload (errCRCMismatch, which the caller may skip), or
// a CRC-valid record whose header and payload disagree.
func readRecord(br *bufio.Reader, version byte) (rec Record, terr, rerr error) {
	h, err := readHeader(br, version)
	if err != nil {
		return rec, err, nil
	}
	// Pre-size only a bounded buffer and grow as real bytes arrive
	// (io.CopyN), so a lying sub-cap length field still cannot allocate
	// more than the input actually backs — the same guard
	// event.ReadBinary applies to its count field.
	const maxPayloadPrealloc = 64 << 10
	prealloc := int(h.payloadLen)
	if prealloc > maxPayloadPrealloc {
		prealloc = maxPayloadPrealloc
	}
	pbuf := bytes.NewBuffer(make([]byte, 0, prealloc))
	if _, err := io.CopyN(pbuf, br, int64(h.payloadLen)); err != nil {
		return rec, noEOFBoundary(err), nil
	}
	payload := pbuf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != h.sum {
		// The payload is full-length, so this is no crash tear (an
		// append-only tear is always a prefix, i.e. a short read):
		// corruption of this one record, wherever it appears.
		return rec, nil, fmt.Errorf("%w (got %08x, header says %08x)", errCRCMismatch, got, h.sum)
	}

	// The CRC passed, so a payload that fails to decode or disagrees
	// with its header is a writer bug, not a torn write.
	rec, err = decodeChecked(h, payload)
	return rec, nil, err
}

// decodeChecked decodes a CRC-checked payload and checks it against
// the header it arrived under — the one payload check of the file
// reader and DecodeRecord.
func decodeChecked(h *recHeader, payload []byte) (Record, error) {
	rec, err := decodePayload(h.typ, h.monitor, payload)
	if err != nil {
		return Record{}, fmt.Errorf("decode %s payload: %w", h.typ, err)
	}
	w, _ := rec.header()
	if err := h.agree(w); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// agree checks that w, the header fields derived from a decoded
// payload, match the header h the payload arrived under.
func (h *recHeader) agree(w recHeader) error {
	if w.typ != h.typ || w.monitor != h.monitor || w.first != h.first || w.last != h.last || w.count != h.count {
		return fmt.Errorf("%s header (monitor %q, seq %d..%d, count %d) disagrees with its payload (monitor %q, seq %d..%d, count %d)",
			h.typ, h.monitor, h.first, h.last, h.count, w.monitor, w.first, w.last, w.count)
	}
	return nil
}

// decodePayload decodes the payload of a record of kind k; monitor is
// the record header's, which every event of a segment must carry.
func decodePayload(k Kind, monitor string, payload []byte) (Record, error) {
	var rec Record
	var err error
	switch k {
	case KindMarker:
		var m history.RecoveryMarker
		m, err = decodeMarker(payload)
		rec.Marker = &m
	case KindHealth:
		var h obs.HealthRecord
		h, err = decodeHealth(payload)
		rec.Health = &h
	case KindTombstone:
		var t Tombstone
		t, err = decodeTombstone(payload)
		rec.Tombstone = &t
	case KindAlert:
		var a obsrules.Alert
		a, err = decodeAlert(payload)
		rec.Alert = &a
	default:
		var events event.Seq
		rd := bytes.NewReader(payload)
		if events, err = event.ReadBinary(rd); err != nil {
			break
		}
		if rd.Len() != 0 {
			return Record{}, fmt.Errorf("%d trailing bytes after segment events", rd.Len())
		}
		for _, e := range events {
			if e.Monitor != monitor {
				return Record{}, fmt.Errorf("event %d belongs to monitor %q, record header says %q", e.Seq, e.Monitor, monitor)
			}
		}
		rec.Segment = &Segment{Monitor: monitor, Events: events}
	}
	return rec, err
}

// noEOFBoundary maps io.EOF mid-record to io.ErrUnexpectedEOF so only
// a boundary EOF reads as a clean end of file.
func noEOFBoundary(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// baseName is filepath.Base shared by the scanner and the sink so
// FileSummary.Name is always the bare segment-file name.
func baseName(name string) string { return filepath.Base(name) }

// RecordReader holds one WAL file open for repeated record point
// reads — the streaming compactor's input cursor: a header-only scan
// (ScanFileRecords) locates every record, then a RecordReader decodes
// them one at a time in whatever order the merge needs, so a
// multi-gigabyte file never has to be resident at once. Unlike the
// one-shot ReadRecordAt it amortises the open across the whole merge.
// Not safe for concurrent use.
type RecordReader struct {
	name    string
	f       *os.File
	version byte
	br      *bufio.Reader
}

// OpenRecordReader opens the file and validates its WAL magic.
func OpenRecordReader(name string) (*RecordReader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("export: open wal file: %w", err)
	}
	var magic [5]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("export: %s: read magic: %w", name, err)
	}
	version, err := walVersion(name, magic)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &RecordReader{name: name, f: f, version: version, br: bufio.NewReader(f)}, nil
}

// ReadAt decodes the single record at the given byte offset. A
// CRC-corrupt record comes back as an error wrapping ErrCorruptRecord
// (the reader stays usable — the stream position is re-seeked on every
// call); a torn record is an error too, since point reads target
// offsets a header scan already validated.
func (r *RecordReader) ReadAt(offset int64) (Record, error) {
	if offset < 5 {
		return Record{}, fmt.Errorf("export: %s: implausible record offset %d", r.name, offset)
	}
	if _, err := r.f.Seek(offset, io.SeekStart); err != nil {
		return Record{}, fmt.Errorf("export: %s: seek record: %w", r.name, err)
	}
	r.br.Reset(r.f)
	rec, terr, rerr := readRecord(r.br, r.version)
	if rerr != nil {
		return Record{}, fmt.Errorf("export: %s offset %d: %w", r.name, offset, rerr)
	}
	if terr != nil {
		return Record{}, fmt.Errorf("export: %s offset %d: torn record: %w", r.name, offset, terr)
	}
	return rec, nil
}

// Close releases the underlying file.
func (r *RecordReader) Close() error { return r.f.Close() }

// ReadRecordAt reads the single record at the given byte offset of a
// WAL file — the point read behind the index's annotation offsets: a
// windowed replay collects a skipped file's annotations without
// decoding any of its segment payloads.
func ReadRecordAt(name string, offset int64) (Record, error) {
	rr, err := OpenRecordReader(name)
	if err != nil {
		return Record{}, err
	}
	defer rr.Close()
	return rr.ReadAt(offset)
}
