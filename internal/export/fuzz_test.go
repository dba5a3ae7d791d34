package export

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"robustmon/internal/event"
)

// fuzzSeedWAL builds a well-formed single-file WAL (two records, two
// monitors) and returns its raw bytes.
func fuzzSeedWAL(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := NewWALSink(dir, WALConfig{})
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	if err := w.WriteSegment(Segment{Monitor: "a", Events: event.Seq{
		{Seq: 1, Monitor: "a", Type: event.Enter, Pid: 1, Proc: "Op", Flag: event.Completed, Time: at},
		{Seq: 3, Monitor: "a", Type: event.SignalExit, Pid: 1, Proc: "Op", Time: at.Add(time.Second)},
	}}); err != nil {
		f.Fatal(err)
	}
	if err := w.WriteSegment(Segment{Monitor: "b", Events: event.Seq{
		{Seq: 2, Monitor: "b", Type: event.Enter, Pid: 2, Proc: "Op", Flag: event.Blocked, Time: at},
	}}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 1 {
		f.Fatalf("seed wal: %v files, err=%v", names, err)
	}
	blob, err := os.ReadFile(names[0])
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// FuzzReadWALFile throws corrupt, truncated and hostile byte streams
// at the WAL segment-file reader. The contract mirrors the event
// decoder's: ReadWALFile either returns decoded records, a torn-tail
// report, or an error — it must never panic, and a lying header length
// field must never balloon the allocator. Whatever it does accept must
// round-trip through the WAL writer byte-identically.
func FuzzReadWALFile(f *testing.F) {
	seed := fuzzSeedWAL(f)
	magicLen := len(walMagicPrefix) + 1
	magicV1 := append(append([]byte{}, walMagicPrefix[:]...), walVersion1)
	magicV2 := append(append([]byte{}, walMagicPrefix[:]...), walVersion2)
	f.Add(seed)
	for _, cut := range []int{0, 1, magicLen, magicLen + 1, len(seed) / 2, len(seed) - 1} {
		if cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	// Zero-filled tail after a valid prefix: the filesystem crash shape.
	f.Add(append(append([]byte{}, seed...), make([]byte, 64)...))
	// Valid magic, absurd monitor-name length (v1: no record-type byte).
	f.Add(append(append([]byte{}, magicV1...), 0xff, 0xff, 0x01))
	// Same in the current format, behind a segment record-type byte.
	f.Add(append(append([]byte{}, magicV2...), byte(KindSegment), 0xff, 0xff, 0x01))
	// Unknown record type right after a valid v2 magic.
	f.Add(append(append([]byte{}, magicV2...), 0x7f))
	// Full v1 record header whose payload-length field lies just under
	// the 1 GiB plausibility cap, with nothing behind it: the reader
	// must report a torn record without ballooning (the io.CopyN guard).
	lyingHeader := append([]byte{}, magicV1...)
	lyingHeader = append(lyingHeader, 1, 0, 'a')              // monitor "a"
	lyingHeader = append(lyingHeader, make([]byte, 16)...)    // first/last seq
	lyingHeader = append(lyingHeader, 1, 0, 0, 0)             // count 1
	lyingHeader = append(lyingHeader, 0x00, 0x00, 0x00, 0x3f) // payload len ≈ 1 GiB − ε
	lyingHeader = append(lyingHeader, 0xde, 0xad, 0xbe, 0xef) // CRC (never reached)
	f.Add(lyingHeader)
	// A marker record (current format) so the fuzzer mutates that shape
	// too.
	mdir := f.TempDir()
	mw, err := NewWALSink(mdir, WALConfig{})
	if err != nil {
		f.Fatal(err)
	}
	if err := mw.WriteMarker(historyMarkerSeed()); err != nil {
		f.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		f.Fatal(err)
	}
	if names, err := walFiles(mdir); err == nil && len(names) == 1 {
		if blob, err := os.ReadFile(names[0]); err == nil {
			f.Add(blob)
		}
	}
	// A tombstone record (the retention horizon, record kind 3) so the
	// fuzzer mutates that shape too: horizon fields, cumulative counts
	// and the per-monitor truncated ranges.
	tdir := f.TempDir()
	tw, err := NewWALSink(tdir, WALConfig{})
	if err != nil {
		f.Fatal(err)
	}
	if err := tw.WriteTombstone(Tombstone{
		Horizon: 10, Events: 9, Records: 3, Files: 1,
		Monitors: []TruncatedRange{
			{Monitor: "a", MinSeq: 1, MaxSeq: 4, Events: 4},
			{Monitor: "b", MinSeq: 5, MaxSeq: 9, Events: 5},
		},
		At: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC),
	}); err != nil {
		f.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		f.Fatal(err)
	}
	if names, err := walFiles(tdir); err == nil && len(names) == 1 {
		if blob, err := os.ReadFile(names[0]); err == nil {
			f.Add(blob)
		}
	}
	f.Add([]byte("not a wal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		name := filepath.Join(dir, "00000001.wal")
		if err := os.WriteFile(name, data, 0o666); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := ReadWALFile(name)
		runtime.ReadMemStats(&after)
		// A hostile header may claim up to 1 GiB of payload; anything the
		// reader actually allocates must be backed by real input bytes,
		// not by the claim (generous slack for decode overhead).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))*8+1<<20 {
			t.Fatalf("ReadWALFile allocated %d bytes on %d input bytes", grew, len(data))
		}
		if err != nil {
			return // corruption verdicts need no further checking
		}
		var segs []event.Seq
		for _, seg := range fr.Segments {
			segs = append(segs, seg.Events)
		}
		// Whatever the reader accepts, the header-only scanner must
		// accept too, and their structural views must agree — the index
		// is built from scans but admits files for the replaying reader.
		sum, serr := ScanFile(name)
		if serr != nil {
			t.Fatalf("ScanFile rejected what ReadWALFile accepted: %v", serr)
		}
		if want := len(segs) + len(fr.Annotations) + fr.CorruptRecords; sum.Records != want {
			t.Fatalf("ScanFile saw %d records, reader decoded %d", sum.Records, want)
		}
		// Corrupt records keep their headers in the scan, so the scanner
		// may index more annotations than the reader decoded — never
		// fewer.
		if len(sum.Annotations) < len(fr.Annotations) {
			t.Fatalf("ScanFile indexed %d annotations, reader decoded %d", len(sum.Annotations), len(fr.Annotations))
		}
		// Accepted records must be internally coherent and re-writable:
		// replaying them through a fresh sink and reading back yields the
		// same events (the montrace replay path depends on this).
		total := 0
		for _, seg := range segs {
			total += len(seg)
			if len(seg) == 0 {
				t.Fatal("reader returned an empty record")
			}
		}
		if total == 0 {
			return
		}
		redir := t.TempDir()
		w, werr := NewWALSink(redir, WALConfig{})
		if werr != nil {
			t.Fatal(werr)
		}
		for _, seg := range segs {
			if werr := w.WriteSegment(Segment{Monitor: seg[0].Monitor, Events: seg}); werr != nil {
				t.Fatalf("re-write of accepted record failed: %v", werr)
			}
		}
		if werr := w.Close(); werr != nil {
			t.Fatal(werr)
		}
		rep, rerr := ReadDir(redir)
		if rerr != nil {
			t.Fatalf("re-read of re-written records failed: %v", rerr)
		}
		want := event.Merge(segs...)
		if len(rep.Events) != len(want) {
			t.Fatalf("round trip changed event count: %d → %d", len(want), len(rep.Events))
		}
		var a, b bytes.Buffer
		if err := event.WriteBinary(&a, want); err != nil {
			t.Fatal(err)
		}
		if err := event.WriteBinary(&b, rep.Events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("round trip changed event bytes")
		}
	})
}

// fixtureFrames returns one framed record of each kind, cut out of the
// committed testdata/allkinds WAL files (magic stripped), keyed by
// kind.
func fixtureFrames(f *testing.F) map[Kind][]byte {
	f.Helper()
	names, err := walFiles("testdata/allkinds")
	if err != nil {
		f.Fatal(err)
	}
	frames := make(map[Kind][]byte)
	for _, name := range names {
		blob, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		sum, locs, err := ScanFileRecords(name)
		if err != nil {
			f.Fatal(err)
		}
		kinds := make(map[int64]Kind)
		for _, l := range locs {
			kinds[l.Offset] = KindSegment
		}
		for _, a := range sum.Annotations {
			kinds[a.Offset] = a.Kind
		}
		offsets := make([]int64, 0, len(kinds))
		for off := range kinds {
			offsets = append(offsets, off)
		}
		sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
		for i, off := range offsets {
			end := int64(len(blob))
			if i+1 < len(offsets) {
				end = offsets[i+1]
			}
			if _, seen := frames[kinds[off]]; !seen {
				frames[kinds[off]] = blob[off:end]
			}
		}
	}
	if len(frames) != 5 {
		f.Fatalf("fixture holds %d record kinds, want 5", len(frames))
	}
	return frames
}

// withPayloadCRC returns a copy of frame whose header CRC is the
// checksum of the payload behind it, so a mutated payload reaches the
// payload decoders instead of stopping at the checksum. ok is false
// when the header does not parse or the payload is short.
func withPayloadCRC(frame []byte) (fixed []byte, ok bool) {
	h, err := readHeader(bytes.NewReader(frame), walVersionLatest)
	if err != nil {
		return nil, false
	}
	hdr := len(h.raw)
	if uint64(len(frame)-hdr) < uint64(h.payloadLen) {
		return nil, false
	}
	fixed = append([]byte(nil), frame...)
	payload := fixed[hdr : hdr+int(h.payloadLen)]
	binary.LittleEndian.PutUint32(fixed[hdr-4:hdr], crc32.ChecksumIEEE(payload))
	return fixed, true
}

// FuzzDecodeRecord throws corrupt, truncated and hostile frames at
// DecodeRecord and at the check the fleet collector runs on bytes read
// off the network (WALSink.WriteEncoded's verifyRecord). Neither may
// panic, they must accept the same frames, and whatever DecodeRecord
// accepts must re-encode through AppendRecord to identical bytes: the
// codec is canonical, so storing a checked frame verbatim stores what
// decoding and re-encoding it would. Every input is checked twice: as
// given, and with its payload CRC recomputed.
func FuzzDecodeRecord(f *testing.F) {
	frames := fixtureFrames(f)
	for _, k := range []Kind{KindSegment, KindMarker, KindHealth, KindTombstone, KindAlert} {
		frame := frames[k]
		if _, err := DecodeRecord(frame); err != nil {
			f.Fatalf("%s seed frame rejected: %v", k, err)
		}
		f.Add(frame)
		for _, cut := range []int{1, 3, len(frame) / 2, len(frame) - 1} {
			f.Add(frame[:cut])
		}
	}
	// A segment header whose payload length lies just under the 1 GiB
	// plausibility cap, with the real payload behind it.
	seg := frames[KindSegment]
	lenAt := 1 + 2 + int(binary.LittleEndian.Uint16(seg[1:3])) + 8 + 8 + 4
	lying := append([]byte(nil), seg...)
	binary.LittleEndian.PutUint32(lying[lenAt:], 1<<30-1)
	f.Add(lying)
	// A segment whose payload carries one byte after its events, under
	// an honest length and CRC: nothing re-encodes that byte.
	padded := append(append([]byte(nil), seg...), 0)
	binary.LittleEndian.PutUint32(padded[lenAt:], binary.LittleEndian.Uint32(seg[lenAt:])+1)
	padded, ok := withPayloadCRC(padded)
	if !ok {
		f.Fatal("padded segment frame does not parse")
	}
	f.Add(padded)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeRecord(t, data)
		if fixed, ok := withPayloadCRC(data); ok {
			checkDecodeRecord(t, fixed)
		}
	})
}

// checkDecodeRecord also runs WriteEncoded's check (verifyRecord) on
// every input: it must accept exactly what DecodeRecord accepts, and
// the header and payload it hands the WAL writer must frame back to
// the input byte for byte. Both parse the header in place
// (parseHeader), which must read every input as the WAL file reader's
// readHeader does, error for error.
func checkDecodeRecord(t *testing.T, data []byte) {
	t.Helper()
	want, werr := readHeader(bytes.NewReader(data), walVersionLatest)
	got, gerr := parseHeader(data, nil)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || werr == nil && !reflect.DeepEqual(got, *want) {
		t.Fatalf("parseHeader and readHeader disagree on %x:\n parse %+v, %v\n read  %+v, %v", data, got, gerr, want, werr)
	}
	rec, err := DecodeRecord(data)
	h, payload, vrec, verr := verifyRecord(data, nil)
	if (err == nil) != (verr == nil) {
		t.Fatalf("DecodeRecord and WriteEncoded's check disagree on %x:\n decode %v\n verify %v", data, err, verr)
	}
	if err != nil {
		return
	}
	if framed := append(appendRecordHeader(nil, h.typ, h.monitor, h.first, h.last, h.count, payload), payload...); !bytes.Equal(framed, data) {
		t.Fatalf("verified frame re-frames to different bytes:\n in  %x\n out %x", data, framed)
	}
	if h.typ != KindSegment && !reflect.DeepEqual(vrec, rec) {
		t.Fatalf("WriteEncoded's check decoded %+v, DecodeRecord %+v", vrec, rec)
	}
	again, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatalf("AppendRecord refused a record DecodeRecord accepted: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted frame re-encodes to different bytes:\n in  %x\n out %x", data, again)
	}
}
