// Package index is the query half of the trace store: a sparse
// per-directory index over the WAL segment files of internal/export,
// and a SeekReader that answers windowed replay queries by opening
// only the files the index admits.
//
// After a long run, an export directory holds hundreds of rotated
// segment files; ReadDir decodes every record of every one even when
// the question is "what happened around sequence 1 234 567 on monitor
// X". The index keeps, per sealed file, exactly what that question
// needs (export.FileSummary): the global and per-monitor sequence
// ranges, one table locating the file's annotation records (recovery
// markers, health snapshots, retention tombstones, threshold alerts) by
// kind, horizon and byte offset, and a CRC over the file's
// record-header chain. The detectEr line of work (Cassar &
// Francalanza) makes the point for monitoring generally: the artefact
// must be cheap to consume, not just cheap to produce.
//
// The index is advisory and deliberately sparse. It is maintained
// incrementally by the WAL sink (wire a Maintainer into
// export.WALConfig.OnSeal) and covers only sealed files — the active
// segment is never indexed; a SeekReader simply scans whatever the
// index does not cover. Every entry is validated against the file on
// disk (size; optionally the header-chain CRC) before it is trusted,
// so a stale or damaged index degrades to scanning, never to wrong
// results, and Rebuild reconstructs the whole index from any WAL
// directory by reading record headers only. Because it is rebuildable,
// the index keeps no compatibility with its own older formats: an
// index file of another format version reads as absent (ErrNoIndex)
// and the next write replaces it.
package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"robustmon/internal/export"
)

// FileName is the index's file name inside an export directory. It
// does not match the *.wal glob, so replay tooling never mistakes it
// for a segment file.
const FileName = "wal.index"

// indexMagic identifies an index file; the byte that follows it on
// disk is the format version.
var indexMagic = [4]byte{'R', 'M', 'I', 'X'}

// indexVersion is the index format version Write emits and Load
// accepts. Version 5 holds one annotation table per file
// (export.FileSummary.Annotations). An index of any other version is
// not decoded: it is advisory and rebuildable from the WAL files, so
// Load reports it as absent — OpenDir then scans every file, and the
// next Maintainer seal or `montrace index` rewrites it at this version.
const indexVersion = 5

// ErrNoIndex reports that the directory has no index file — or one of
// another format version, which is treated the same way.
var ErrNoIndex = errors.New("index: no index file")

// errOtherVersion marks an intact index file of another format version.
var errOtherVersion = errors.New("index: format version")

// Decode caps, sized far above anything real so a corrupt length field
// cannot balloon the reader (the same posture as the WAL and trace
// decoders).
const (
	maxIndexFiles   = 1 << 20
	maxIndexEntries = 1 << 20
	maxIndexString  = 1 << 10
)

// Index is a directory's file-summary table, sorted by file name
// (which is creation order — names are zero-padded numbers).
type Index struct {
	Files []export.FileSummary
}

// Lookup returns the summary recorded for the named file (base name).
func (x *Index) Lookup(name string) (export.FileSummary, bool) {
	i := sort.Search(len(x.Files), func(i int) bool { return x.Files[i].Name >= name })
	if i < len(x.Files) && x.Files[i].Name == name {
		return x.Files[i], true
	}
	return export.FileSummary{}, false
}

// Add inserts or replaces the summary for its file, keeping the table
// sorted.
func (x *Index) Add(fs export.FileSummary) {
	i := sort.Search(len(x.Files), func(i int) bool { return x.Files[i].Name >= fs.Name })
	if i < len(x.Files) && x.Files[i].Name == fs.Name {
		x.Files[i] = fs
		return
	}
	x.Files = append(x.Files, export.FileSummary{})
	copy(x.Files[i+1:], x.Files[i:])
	x.Files[i] = fs
}

// Remove drops the named file's entry, if present.
func (x *Index) Remove(name string) {
	i := sort.Search(len(x.Files), func(i int) bool { return x.Files[i].Name >= name })
	if i < len(x.Files) && x.Files[i].Name == name {
		x.Files = append(x.Files[:i], x.Files[i+1:]...)
	}
}

// Events sums the indexed event counts across all files.
func (x *Index) Events() int64 {
	var n int64
	for _, f := range x.Files {
		n += f.Events
	}
	return n
}

// encode serialises the index: magic + version, then the body, then a
// CRC-32 (IEEE) over magic+version+body — one torn or flipped byte
// fails the whole file, which is fine because the index is always
// rebuildable.
func (x *Index) encode() []byte {
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	buf.WriteByte(indexVersion)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { buf.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	putVarint := func(v int64) { buf.Write(scratch[:binary.PutVarint(scratch[:], v)]) }
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	putUvarint(uint64(len(x.Files)))
	for _, f := range x.Files {
		putString(f.Name)
		buf.WriteByte(f.Version)
		flags := byte(0)
		if f.Torn {
			flags |= 1
		}
		buf.WriteByte(flags)
		putVarint(f.Size)
		putUvarint(uint64(f.Records))
		putVarint(f.Events)
		putVarint(f.MinSeq)
		putVarint(f.MaxSeq)
		putUvarint(uint64(f.HeaderCRC))
		putUvarint(uint64(len(f.Monitors)))
		for _, mr := range f.Monitors {
			putString(mr.Monitor)
			putVarint(mr.MinSeq)
			putVarint(mr.MaxSeq)
			putVarint(mr.Events)
		}
		putUvarint(uint64(len(f.Annotations)))
		for _, a := range f.Annotations {
			buf.WriteByte(byte(a.Kind))
			putString(a.Monitor)
			putVarint(a.Horizon)
			putVarint(a.Offset)
		}
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	binary.LittleEndian.PutUint32(scratch[:4], sum)
	buf.Write(scratch[:4])
	return buf.Bytes()
}

// decode reverses encode. It never panics on hostile input and never
// allocates more than the input backs.
func decode(data []byte) (*Index, error) {
	if len(data) < len(indexMagic)+1+4 {
		return nil, fmt.Errorf("index: file too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("index: checksum mismatch (got %08x, file says %08x)", got, want)
	}
	if [4]byte(body[:4]) != indexMagic {
		return nil, errors.New("index: bad magic")
	}
	if version := body[4]; version != indexVersion {
		return nil, fmt.Errorf("%w %d, not %d", errOtherVersion, version, indexVersion)
	}
	br := bytes.NewReader(body[5:])
	getUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	getVarint := func() (int64, error) { return binary.ReadVarint(br) }
	getString := func() (string, error) {
		n, err := getUvarint()
		if err != nil {
			return "", err
		}
		if n > maxIndexString {
			return "", fmt.Errorf("index: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	nFiles, err := getUvarint()
	if err != nil {
		return nil, fmt.Errorf("index: file count: %w", err)
	}
	if nFiles > maxIndexFiles {
		return nil, fmt.Errorf("index: implausible file count %d", nFiles)
	}
	x := &Index{}
	for i := uint64(0); i < nFiles; i++ {
		var f export.FileSummary
		if f.Name, err = getString(); err != nil {
			return nil, fmt.Errorf("index: entry %d name: %w", i, err)
		}
		// Entries are joined onto the directory path by readers; a name
		// that escapes the directory is hostile, not just malformed.
		if f.Name == "" || f.Name != filepath.Base(f.Name) || strings.ContainsAny(f.Name, "/\\") {
			return nil, fmt.Errorf("index: entry %d: unsafe file name %q", i, f.Name)
		}
		hdr := make([]byte, 2)
		if _, err := io.ReadFull(br, hdr); err != nil {
			return nil, fmt.Errorf("index: entry %d header: %w", i, err)
		}
		f.Version = hdr[0]
		f.Torn = hdr[1]&1 != 0
		if f.Size, err = getVarint(); err != nil {
			return nil, fmt.Errorf("index: entry %d size: %w", i, err)
		}
		records, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: entry %d records: %w", i, err)
		}
		if records > maxIndexEntries {
			return nil, fmt.Errorf("index: entry %d: implausible record count %d", i, records)
		}
		f.Records = int(records)
		if f.Events, err = getVarint(); err != nil {
			return nil, fmt.Errorf("index: entry %d events: %w", i, err)
		}
		if f.MinSeq, err = getVarint(); err != nil {
			return nil, fmt.Errorf("index: entry %d minseq: %w", i, err)
		}
		if f.MaxSeq, err = getVarint(); err != nil {
			return nil, fmt.Errorf("index: entry %d maxseq: %w", i, err)
		}
		hcrc, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: entry %d headercrc: %w", i, err)
		}
		f.HeaderCRC = uint32(hcrc)
		nMons, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: entry %d monitor count: %w", i, err)
		}
		if nMons > maxIndexEntries {
			return nil, fmt.Errorf("index: entry %d: implausible monitor count %d", i, nMons)
		}
		for j := uint64(0); j < nMons; j++ {
			var mr export.MonitorRange
			if mr.Monitor, err = getString(); err != nil {
				return nil, fmt.Errorf("index: entry %d monitor %d: %w", i, j, err)
			}
			if mr.MinSeq, err = getVarint(); err != nil {
				return nil, fmt.Errorf("index: entry %d monitor %d minseq: %w", i, j, err)
			}
			if mr.MaxSeq, err = getVarint(); err != nil {
				return nil, fmt.Errorf("index: entry %d monitor %d maxseq: %w", i, j, err)
			}
			if mr.Events, err = getVarint(); err != nil {
				return nil, fmt.Errorf("index: entry %d monitor %d events: %w", i, j, err)
			}
			f.Monitors = append(f.Monitors, mr)
		}
		nAnns, err := getUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: entry %d annotation count: %w", i, err)
		}
		if nAnns > maxIndexEntries {
			return nil, fmt.Errorf("index: entry %d: implausible annotation count %d", i, nAnns)
		}
		for j := uint64(0); j < nAnns; j++ {
			var a export.AnnotationInfo
			kind, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("index: entry %d annotation %d kind: %w", i, j, err)
			}
			if a.Kind = export.Kind(kind); a.Kind == export.KindSegment || a.Kind > export.KindAlert {
				return nil, fmt.Errorf("index: entry %d annotation %d: %s is no annotation kind", i, j, a.Kind)
			}
			if a.Monitor, err = getString(); err != nil {
				return nil, fmt.Errorf("index: entry %d annotation %d monitor: %w", i, j, err)
			}
			if a.Horizon, err = getVarint(); err != nil {
				return nil, fmt.Errorf("index: entry %d annotation %d horizon: %w", i, j, err)
			}
			if a.Offset, err = getVarint(); err != nil {
				return nil, fmt.Errorf("index: entry %d annotation %d offset: %w", i, j, err)
			}
			f.Annotations = append(f.Annotations, a)
		}
		x.Files = append(x.Files, f)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("index: %d trailing bytes", br.Len())
	}
	sort.Slice(x.Files, func(i, j int) bool { return x.Files[i].Name < x.Files[j].Name })
	return x, nil
}

// Load reads the directory's index file. ErrNoIndex (wrapped) when
// there is none, or only one of another format version.
func Load(dir string) (*Index, error) {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w in %s", ErrNoIndex, dir)
		}
		return nil, fmt.Errorf("index: read: %w", err)
	}
	x, err := decode(data)
	if errors.Is(err, errOtherVersion) {
		return nil, fmt.Errorf("%w in %s (%v: rebuild it)", ErrNoIndex, dir, err)
	}
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", filepath.Join(dir, FileName), err)
	}
	return x, nil
}

// Write persists the index into its directory, atomically: the encoded
// bytes go to a temporary file renamed over FileName, so a concurrent
// reader sees either the old index or the new one, never a torn write.
// Deliberately no fsync: the maintainer calls Write on the exporter's
// writer goroutine at every rotation, and the index is advisory —
// CRC-framed (a crash-mangled one reads as damaged, not as wrong) and
// rebuildable — so durability is not worth stalling the export path
// for.
func (x *Index) Write(dir string) error {
	final := filepath.Join(dir, FileName)
	tmp, err := os.CreateTemp(dir, FileName+".tmp*")
	if err != nil {
		return fmt.Errorf("index: create temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(x.encode()); err != nil {
		tmp.Close()
		return fmt.Errorf("index: write temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("index: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("index: install: %w", err)
	}
	return nil
}

// Rebuild reconstructs an index by scanning every segment file's
// record headers (export.ScanFile) — WAL format v1 and v2 files
// alike, so a directory written before the index (or before markers)
// existed is indexable after the fact. A torn tail is tolerated only on the
// newest file, exactly as ReadDir tolerates it; the torn entry is
// recorded (Torn set) so readers know its summary covers a prefix.
// Rebuild only builds; call Write to persist.
func Rebuild(dir string) (*Index, error) {
	names, err := export.WALFiles(dir)
	if err != nil {
		return nil, err
	}
	x := &Index{}
	for i, name := range names {
		fs, err := export.ScanFile(name)
		if err != nil {
			return nil, err
		}
		if fs.Torn && i != len(names)-1 {
			return nil, fmt.Errorf("index: %s is torn but not the newest file — corruption, not a crash tail", name)
		}
		x.Add(fs)
	}
	return x, nil
}

// Verify checks every indexed entry against the directory: the file
// must exist, its size must match, and its record-header chain must
// hash to the recorded HeaderCRC (a header-only scan — payloads are
// not read). It returns one error per disagreement, nil when the
// index is exact. Verification is what turns HeaderCRC into a
// guarantee: same size but different structure — an in-place edit —
// cannot hide.
func (x *Index) Verify(dir string) []error {
	var errs []error
	for _, f := range x.Files {
		path := filepath.Join(dir, f.Name)
		info, err := os.Stat(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("index: %s: %w", f.Name, err))
			continue
		}
		if info.Size() != f.Size {
			errs = append(errs, fmt.Errorf("index: %s: size %d on disk, index says %d", f.Name, info.Size(), f.Size))
			continue
		}
		scanned, err := export.ScanFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("index: %s: %w", f.Name, err))
			continue
		}
		if scanned.HeaderCRC != f.HeaderCRC {
			errs = append(errs, fmt.Errorf("index: %s: header chain %08x on disk, index says %08x",
				f.Name, scanned.HeaderCRC, f.HeaderCRC))
		}
	}
	return errs
}

// Maintainer keeps a directory's index file in step with its WAL sink:
// wire it into export.WALConfig.OnSeal (it implements
// export.SealedSink) and every sealed file is appended to the index
// and the index rewritten (atomically). The
// index file is re-read from disk on every rotation — deliberately not
// cached, because the compactor rewrites the same file (dropping
// merged inputs' entries) between rotations, and writing back a cached
// copy would resurrect entries for files the compactor deleted. A
// rotation racing a concurrent compaction can still lose one update to
// last-writer-wins, which the advisory-index rule absorbs: a missing
// entry is scanned, a stale one fails size validation. An unreadable
// index is started over; a missing one is created. Safe for concurrent
// use, though the sink drives it from one goroutine in practice.
type Maintainer struct {
	mu  sync.Mutex
	dir string
	err error
}

// NewMaintainer returns a maintainer for the directory's index.
func NewMaintainer(dir string) *Maintainer {
	return &Maintainer{dir: dir}
}

// OnSeal records one sealed file into the index; it implements
// export.SealedSink. The returned error is also sticky and surfaced
// by Err — the sink's write path never fails because an advisory
// index could not be written, but a seal fan-out that wants to report
// it (WALConfig.OnSealError) can.
func (m *Maintainer) OnSeal(fs export.FileSummary) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, err := Load(m.dir)
	if err != nil {
		// Missing, damaged or of another version: start over — the index is rebuildable by
		// construction, and a sink-maintained one regrows as files seal.
		// (A pre-existing backlog is Rebuild's job, not ours.)
		idx = &Index{}
	}
	idx.Add(fs)
	if err := idx.Write(m.dir); err != nil {
		m.err = err
		return err
	}
	return nil
}

// Err returns the most recent index-write error, if any.
func (m *Maintainer) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
