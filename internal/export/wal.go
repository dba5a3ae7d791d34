package export

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robustmon/internal/clock"
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// The on-disk WAL layout. A directory of numbered files
// ("00000001.wal", …); each file starts with the 5-byte magic (4-byte
// prefix + format version) and holds a sequence of records. In format
// version 2 every record begins with a one-byte record type; version 1
// files (written before recovery markers existed) have no type byte
// and hold only segment records. All record types share one header:
//
//	uint8   record type (v2 only: a Kind)
//	uint16  len(monitor)      ┐
//	bytes   monitor           │ little-endian record header
//	int64   first seq         │ (per-kind meaning: Record.header)
//	int64   last seq          │
//	uint32  event count       │
//	uint32  len(payload)      │
//	uint32  CRC-32 (IEEE) of payload ┘
//	bytes   payload
//
// A segment record's payload is event.WriteBinary of the drained
// events — itself a well-formed single-segment trace. An annotation's
// payload is its kind's self-contained blob (appendMarker,
// appendHealth, appendTombstone, appendAlert). The header duplicates
// the seq range and count so a reader can index a WAL without decoding
// payloads, and the CRC turns a torn write into a detectable
// truncation instead of silent corruption. Files are fsynced when
// rotated and on Flush/Close; a crash can therefore only lose or tear
// the tail of the newest file, which the reader recovers from by
// dropping the torn record.

// walMagicPrefix identifies a WAL segment file; the byte that follows
// it on disk is the format version.
var walMagicPrefix = [4]byte{'R', 'M', 'W', 'L'}

// The WAL format versions the reader accepts. The writer always writes
// the current version.
const (
	walVersion1      = 1 // segments only, no record-type byte
	walVersion2      = 2 // record-type byte: segments + recovery markers
	walVersionLatest = walVersion2
)

// Kind is a record's kind: the record-type byte of format version 2
// (version-1 files hold only segments). Health snapshots, tombstones
// and alerts ride the same v2 framing markers introduced: the header
// layout is unchanged, so the format version does not bump — v1 and
// marker-era v2 files read exactly as before, and only tooling older
// than a kind refuses a file containing one.
type Kind byte

// The record kinds. Every kind but KindSegment is an annotation: a
// small typed record, stamped with a sequence horizon, that travels
// alongside the segments.
const (
	KindSegment   Kind = 0
	KindMarker    Kind = 1
	KindHealth    Kind = 2
	KindTombstone Kind = 3
	KindAlert     Kind = 4
)

var kindNames = [...]string{"segment", "recovery marker", "health snapshot", "retention tombstone", "threshold alert"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind %d", byte(k))
}

// walExt is the segment-file extension.
const walExt = ".wal"

// maxMonitorName bounds the monitor-id field of a record header.
const maxMonitorName = 1 << 10

// DefaultMaxFileBytes is the rotation threshold when WALConfig leaves
// MaxFileBytes zero: a file is closed (and fsynced) once it grows past
// this many bytes.
const DefaultMaxFileBytes = 8 << 20

// SealedSink consumes sealed-file summaries. A WAL file is "sealed"
// when it has been flushed, fsynced and closed — rotation or Close —
// so a summary handed to OnSeal always describes durable bytes. This
// is the incremental-maintenance seam of the trace store (the index
// maintainer is one SealedSink; a network shipper is another), and
// WALConfig.OnSeal fans each seal out to any number of them.
//
// OnSeal is called from whatever goroutine drives the sink (the
// exporter's writer); a slow consumer stalls the write path, so do
// real work asynchronously. A returned error is reported through
// WALConfig.OnSealError and counted, but never fails the write path
// and never starves the other consumers: every registered sink sees
// every seal.
type SealedSink interface {
	OnSeal(fs FileSummary) error
}

// SealedSinkFunc adapts a plain function to the SealedSink interface.
type SealedSinkFunc func(fs FileSummary) error

// OnSeal calls f.
func (f SealedSinkFunc) OnSeal(fs FileSummary) error { return f(fs) }

// WALConfig parameterises a WALSink.
type WALConfig struct {
	// MaxFileBytes rotates to a new segment file once the current one
	// exceeds this size (default DefaultMaxFileBytes). Rotation is the
	// durability boundary: the outgoing file is flushed and fsynced
	// before the next one opens.
	MaxFileBytes int64
	// RotateEvery, when positive, additionally rotates by age: a write
	// or Flush that finds the current file older than this seals it
	// first. Size-based rotation alone lets an idle monitor's trickle
	// sit in one open (undurable, uncompactable) file indefinitely;
	// age-based rotation bounds how long any record stays outside a
	// sealed, index-visible, compactable segment. The check runs at
	// write/flush time — a sink nobody touches seals nothing, which is
	// fine: it also wrote nothing new.
	RotateEvery time.Duration
	// Clock is the time source for age-based rotation (default: wall
	// clock). Only consulted when RotateEvery is set.
	Clock clock.Clock
	// CompactEvery, together with Compact, arms background compaction:
	// each seal counts the sealed files in the directory, and once
	// CompactEvery of them have sealed on top of the floor the last
	// pass left, the sink launches Compact (see WALSink.Compact). The
	// floor matters: compacted output is still bounded by MaxFileBytes,
	// so a big trace has an incompressible file count, and an absolute
	// threshold would relaunch a futile full-directory rewrite at every
	// seal once the trace crossed it. A seal is the only event that
	// adds a sealed file, so checking there launches at the same count
	// as checking after every write would. This is how a long-running
	// detector or collector bounds its on-disk footprint without anyone
	// calling a CLI. Zero (or a nil Compact) disables.
	CompactEvery int
	// Compact is the pass CompactEvery launches, called with the sink's
	// directory — typically a compact.Dir closure (the export package
	// cannot import its compact subpackage). It runs concurrently with
	// the writes, which is safe because the compactor leaves the newest
	// file alone (compact.Config.KeepNewest >= 1, the default): it is
	// the one the sink appends to.
	Compact func(dir string) error
	// OnSeal holds the consumers notified with the sealed file's summary
	// each time a file is rotated or closed. Every consumer sees every
	// seal, in registration order; one consumer's error is routed to
	// OnSealError (and counted as export_wal_seal_errors_total) without
	// skipping the rest and without failing the write path. Wire
	// index.NewMaintainer(dir) here and the directory's index tracks
	// every sealed segment for free; wire a network shipper alongside it
	// and sealed segments stream off-box too.
	OnSeal []SealedSink
	// OnSealError, when set, receives each error an OnSeal consumer or
	// a background compaction returns. Both are advisory — the files
	// are already durable locally — so they are reported, not
	// propagated: they never fail a write, a Flush or Close. A failed
	// compaction reports from its own goroutine, so OnSealError must be
	// safe for concurrent use.
	OnSealError func(error)
	// Obs, when set, instruments the sink: export_wal_bytes_total
	// (header + payload bytes written), export_wal_records_total,
	// export_wal_rotations_total, the export_wal_fsync_ns latency
	// histogram, and export_compactions_total and
	// export_compact_errors_total for the background passes. Nil
	// disables at zero cost (see internal/obs).
	Obs *obs.Registry
}

// walMetrics are the sink's obs handles; the zero value (all nil) is
// the disabled mode.
type walMetrics struct {
	bytes         *obs.Counter
	records       *obs.Counter
	rotations     *obs.Counter
	sealErrors    *obs.Counter
	compactions   *obs.Counter
	compactErrors *obs.Counter
	fsyncNs       *obs.Histogram
}

func newWALMetrics(reg *obs.Registry) walMetrics {
	if reg == nil {
		return walMetrics{}
	}
	return walMetrics{
		bytes:         reg.Counter("export_wal_bytes_total"),
		records:       reg.Counter("export_wal_records_total"),
		rotations:     reg.Counter("export_wal_rotations_total"),
		sealErrors:    reg.Counter("export_wal_seal_errors_total"),
		compactions:   reg.Counter("export_compactions_total"),
		compactErrors: reg.Counter("export_compact_errors_total"),
		fsyncNs:       reg.Histogram("export_wal_fsync_ns"),
	}
}

// WALSink persists exported segments to a directory of numbered,
// CRC-protected segment files. Construct with NewWALSink; it is driven
// by the exporter's writer goroutine and is not safe for concurrent
// use. Only the background compaction it launches runs on a goroutine
// of its own.
type WALSink struct {
	dir  string
	cfg  WALConfig
	next int // number of the next file to create

	f    *os.File
	bw   *bufio.Writer
	size int64
	// hdr is the record-header scratch buffer, reused across every
	// record the sink ever writes (nothing downstream retains it:
	// summaryBuilder folds it into a CRC and lets go).
	hdr      []byte
	openedAt time.Time
	cur      *summaryBuilder // summary of the file being written
	met      walMetrics

	// compacting keeps passes one at a time; compactDone marks a
	// finished pass whose floor the next seal re-bases. Both are
	// written by the pass goroutine. compactFloor is the sealed-file
	// count the last pass could not shrink below: the re-trigger
	// baseline, touched only by the goroutine driving the sink.
	compacting   atomic.Bool
	compactDone  atomic.Bool
	compactFloor int
	compactWG    sync.WaitGroup
}

// NewWALSink opens (creating if needed) dir for appending. An existing
// WAL is never clobbered: numbering continues after the highest
// existing file.
func NewWALSink(dir string, cfg WALConfig) (*WALSink, error) {
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = DefaultMaxFileBytes
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("export: create wal dir: %w", err)
	}
	names, err := walFiles(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(names) > 0 {
		last := strings.TrimSuffix(filepath.Base(names[len(names)-1]), walExt)
		if _, err := fmt.Sscanf(last, "%d", &next); err != nil {
			return nil, fmt.Errorf("export: bad wal file name %q", names[len(names)-1])
		}
		next++
	}
	return &WALSink{dir: dir, cfg: cfg, next: next, met: newWALMetrics(cfg.Obs)}, nil
}

// walFiles lists dir's segment files sorted by name — numeric order,
// since names are zero-padded.
func walFiles(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"+walExt))
	if err != nil {
		return nil, fmt.Errorf("export: list wal dir: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// Dir returns the sink's directory.
func (w *WALSink) Dir() string { return w.dir }

// sealedFiles reports how many sealed segment files are on disk —
// the rotated backlog a compactor can merge. It counts the directory
// (one readdir per call, made only at an armed sink's seals), not the
// sink's monotonic file number: compaction shrinks the directory, and
// the backlog must shrink with it or the CompactEvery trigger would
// keep firing forever after first crossing it. Files inherited from
// earlier sink sessions count too, since numbering resumes after
// them; the file currently being written does not.
func (w *WALSink) sealedFiles() int {
	names, err := walFiles(w.dir)
	if err != nil {
		return 0
	}
	n := len(names)
	if w.f != nil {
		n-- // the active file is on disk but not sealed
	}
	if n < 0 {
		n = 0
	}
	return n
}

// open starts the next numbered segment file.
func (w *WALSink) open() error {
	name := filepath.Join(w.dir, fmt.Sprintf("%08d%s", w.next, walExt))
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("export: create wal file: %w", err)
	}
	w.next++
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = 0
	w.openedAt = w.cfg.Clock.Now()
	w.cur = newSummaryBuilder(baseName(name), walVersionLatest)
	magic := append(append([]byte(nil), walMagicPrefix[:]...), walVersionLatest)
	if _, err := w.bw.Write(magic); err != nil {
		return fmt.Errorf("export: write wal magic: %w", err)
	}
	w.size += int64(len(magic))
	return nil
}

// WriteSegment appends one segment record and rotates if the file
// outgrew the threshold. The payload is encoded into a pooled buffer
// (event.AppendBinary), so steady-state segment writes allocate
// nothing per event.
func (w *WALSink) WriteSegment(seg Segment) error {
	if len(seg.Events) == 0 {
		return nil
	}
	// ~48 bytes/event covers typical traces; undersizing only costs
	// one growth step inside AppendBinary (and the grown buffer is
	// what re-enters the pool).
	p := payloadBufs.get(16 + 48*len(seg.Events))
	*p = event.AppendBinary((*p)[:0], seg.Events)
	err := w.writeRecord(KindSegment, seg.Monitor,
		seg.First(), seg.Last(), uint32(len(seg.Events)), *p)
	payloadBufs.put(p)
	return err
}

// WriteMarker appends one recovery-marker record — the durable trace of
// a shard-local online reset (the MarkerSink extension).
func (w *WALSink) WriteMarker(m history.RecoveryMarker) error {
	return w.writeAnnotation(Record{Marker: &m})
}

// WriteHealth appends one health-snapshot record — a periodic capture
// of the detector's metrics registry (the HealthSink extension).
func (w *WALSink) WriteHealth(h obs.HealthRecord) error {
	return w.writeAnnotation(Record{Health: &h})
}

// WriteAlert appends one threshold-alert record — a rule transition of
// the self-watching engine (the AlertSink extension).
func (w *WALSink) WriteAlert(a obsrules.Alert) error {
	return w.writeAnnotation(Record{Alert: &a})
}

// WriteTombstone appends one retention-tombstone record — the durable
// trace of a retention pass (the TombstoneSink extension).
func (w *WALSink) WriteTombstone(t Tombstone) error {
	return w.writeAnnotation(Record{Tombstone: &t})
}

// WriteEncoded appends one framed record, as AppendRecord encodes it,
// verbatim: the bytes written are b. It first applies every check
// DecodeRecord applies — the frame, the payload CRC, the payload and
// its agreement with the header — so a collector can store the bytes
// it received without trusting them. The received header is written
// as it came, so the payload's CRC is computed once, by the check. A
// segment's payload is checked in place (event.VerifyBinary), never
// decoded, so for a segment the returned Record has no field set; an
// annotation comes back decoded. The sink keeps no reference to b.
func (w *WALSink) WriteEncoded(b []byte) (Record, error) {
	h, payload, rec, err := verifyRecord(b, w.cur)
	if err != nil {
		return Record{}, err
	}
	if err := w.writeFramed(&h, payload); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// writeAnnotation appends one non-segment record under the header
// Record.header derives for it, its payload encoded into a pooled
// buffer.
func (w *WALSink) writeAnnotation(r Record) error {
	h, _ := r.header()
	p := payloadBufs.get(0)
	*p = r.appendPayload((*p)[:0])
	err := w.writeRecord(h.typ, h.monitor, h.first, h.last, h.count, *p)
	payloadBufs.put(p)
	return err
}

// writeRecord frames payload under the header appendRecordHeader
// builds for it and writes the record.
func (w *WALSink) writeRecord(typ Kind, monitor string, first, last int64, count uint32, payload []byte) error {
	if len(monitor) > maxMonitorName {
		return fmt.Errorf("export: monitor name %d bytes long (limit %d)", len(monitor), maxMonitorName)
	}
	w.hdr = appendRecordHeader(w.hdr[:0], typ, monitor, first, last, count, payload)
	return w.writeFramed(&recHeader{
		typ: typ, monitor: monitor, first: first, last: last,
		count: count, payloadLen: uint32(len(payload)), raw: w.hdr,
	}, payload)
}

// writeFramed appends one record of any kind, the header bytes h.raw
// (which already frame payload, CRC included) and then payload, and
// rotates if the file outgrew the threshold.
func (w *WALSink) writeFramed(h *recHeader, payload []byte) error {
	if w.f != nil && w.stale() {
		// Age-based rotation: seal the old file before this record, so
		// the record lands in a fresh one and the backlog stays bounded
		// in time, not just in bytes.
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.open(); err != nil {
			return err
		}
	}
	if _, err := w.bw.Write(h.raw); err != nil {
		return fmt.Errorf("export: write record header: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return fmt.Errorf("export: write record payload: %w", err)
	}
	w.cur.add(h, w.size)
	n := int64(len(h.raw) + len(payload))
	w.size += n
	w.met.records.Inc()
	w.met.bytes.Add(n)
	if w.size >= w.cfg.MaxFileBytes {
		return w.rotate()
	}
	return nil
}

// sync flushes the buffered writer and fsyncs the current file.
func (w *WALSink) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("export: flush wal: %w", err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("export: fsync wal: %w", err)
	}
	w.met.fsyncNs.Observe(time.Since(start).Nanoseconds())
	return nil
}

// stale reports whether the current file outlived the age-rotation
// threshold.
func (w *WALSink) stale() bool {
	return w.cfg.RotateEvery > 0 && w.cfg.Clock.Now().Sub(w.openedAt) >= w.cfg.RotateEvery
}

// rotate seals the current file and arranges for the next write to
// open a fresh one; the seal is also where the CompactEvery trigger
// is checked, since only a seal grows the backlog.
func (w *WALSink) rotate() error {
	if err := w.seal(); err != nil {
		return err
	}
	if w.cfg.CompactEvery <= 0 || w.cfg.Compact == nil {
		return nil
	}
	sealed := w.sealedFiles()
	if w.compactDone.CompareAndSwap(true, false) {
		// First seal after a pass finished: what was sealed right after
		// the pass — everything but the file that just sealed — is its
		// incompressible floor, and only CompactEvery new files on top
		// of it justify another pass.
		w.compactFloor = sealed - 1
	}
	if sealed-w.compactFloor >= w.cfg.CompactEvery {
		w.Compact(w.cfg.Compact)
	}
	return nil
}

// Compact runs fn against the sink's directory on its own goroutine —
// the writes must go on, or a long pass would backpressure the
// detector — unless a pass is already in flight, in which case it
// does nothing. The pass is counted in export_compactions_total, a
// failed one in export_compact_errors_total and reported through
// OnSealError; it never fails a write, a Flush or Close. Close waits
// for the pass in flight. The CompactEvery trigger launches through
// here, and so does a caller running a pass of its own, such as a
// wall-clock retention timer. Like every other method it must not be
// called concurrently with the sink's writes.
func (w *WALSink) Compact(fn func(dir string) error) {
	if !w.compacting.CompareAndSwap(false, true) {
		return
	}
	w.met.compactions.Inc()
	w.compactWG.Add(1)
	go func() {
		defer w.compactWG.Done()
		// LIFO: compactDone must be visible before compacting releases,
		// so the next seal re-bases the floor before it can relaunch.
		defer w.compacting.Store(false)
		defer w.compactDone.Store(true)
		if err := fn(w.dir); err != nil {
			w.met.compactErrors.Inc()
			if w.cfg.OnSealError != nil {
				w.cfg.OnSealError(err)
			}
		}
	}()
}

// seal closes the current file — flush, fsync, close. Everything
// before this point is durable from here on; the sealed file's
// summary is then fanned out to every OnSeal consumer. One consumer's
// failure never starves another: the error goes to OnSealError and
// the seal-error counter, and the loop continues.
func (w *WALSink) seal() error {
	if w.f == nil {
		return nil
	}
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("export: close wal file: %w", err)
	}
	w.f, w.bw = nil, nil
	w.met.rotations.Inc()
	if w.cur != nil && w.cur.sum.Records > 0 {
		fs := w.cur.done(w.size, false)
		for _, s := range w.cfg.OnSeal {
			if s == nil {
				continue
			}
			if err := s.OnSeal(fs); err != nil {
				w.met.sealErrors.Inc()
				if w.cfg.OnSealError != nil {
					w.cfg.OnSealError(err)
				}
			}
		}
	}
	w.cur = nil
	return nil
}

// Flush makes everything written so far durable without rotating —
// unless the current file outlived RotateEvery, in which case it is
// sealed instead, so periodic flushers give even an idle trickle
// bounded, compactable segments.
func (w *WALSink) Flush() error {
	if w.f != nil && w.stale() {
		return w.rotate()
	}
	return w.sync()
}

// Close seals the current file, without checking the CompactEvery
// trigger, and waits for the compaction in flight. The sink is
// unusable afterwards.
func (w *WALSink) Close() error {
	err := w.seal()
	w.compactWG.Wait()
	return err
}
