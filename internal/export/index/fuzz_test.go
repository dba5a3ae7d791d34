package index

import (
	"hash/crc32"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"robustmon/internal/export"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// FuzzReadIndex throws corrupt, truncated and hostile byte streams at
// the index decoder. The contract mirrors the WAL reader's: decode
// either returns a valid index or an error — it must never panic, a
// lying length field must never balloon the allocator, and whatever it
// accepts must re-encode/decode to the identical index (the compactor
// and maintainer rewrite indexes they loaded).
func FuzzReadIndex(f *testing.F) {
	// Seed with a real maintained index.
	dir := f.TempDir()
	m := NewMaintainer(dir)
	sink, err := export.NewWALSink(dir, export.WALConfig{MaxFileBytes: 1, OnSeal: []export.SealedSink{m}})
	if err != nil {
		f.Fatal(err)
	}
	at := func(mon string, from, to int64) export.Segment {
		var s export.Segment
		s.Monitor = mon
		for i := from; i <= to; i++ {
			s.Events = append(s.Events, tev(mon, i))
		}
		return s
	}
	for i, seg := range []export.Segment{at("a", 1, 4), at("b", 5, 9), at("a", 10, 12)} {
		if err := sink.WriteSegment(seg); err != nil {
			f.Fatalf("segment %d: %v", i, err)
		}
	}
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	idx, err := Load(dir)
	if err != nil {
		f.Fatal(err)
	}
	seed := idx.encode()
	f.Add(seed)
	for _, cut := range []int{0, 4, 5, len(seed) / 2, len(seed) - 5, len(seed) - 1} {
		if cut >= 0 && cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	// A current-version index whose annotation table holds every kind —
	// a retention-truncated store whose files carry a tombstone, a
	// recovery marker, a health snapshot and an alert — so the fuzzer
	// mutates the annotation table too.
	tdir := f.TempDir()
	tm := NewMaintainer(tdir)
	tsink, err := export.NewWALSink(tdir, export.WALConfig{MaxFileBytes: 1, OnSeal: []export.SealedSink{tm}})
	if err != nil {
		f.Fatal(err)
	}
	if err := tsink.WriteTombstone(export.Tombstone{
		Horizon: 5, Events: 4, Records: 1, Files: 1,
		Monitors: []export.TruncatedRange{{Monitor: "a", MinSeq: 1, MaxSeq: 4, Events: 4}},
	}); err != nil {
		f.Fatal(err)
	}
	if err := tsink.WriteSegment(at("a", 5, 9)); err != nil {
		f.Fatal(err)
	}
	if err := tsink.WriteMarker(history.RecoveryMarker{Monitor: "a", Horizon: 9, Dropped: 1, Rule: "ST-5"}); err != nil {
		f.Fatal(err)
	}
	if err := tsink.WriteHealth(obs.HealthRecord{Seq: 9}); err != nil {
		f.Fatal(err)
	}
	if err := tsink.WriteAlert(obsrules.Alert{Seq: 9, Rule: "r", Metric: "m", Firing: true}); err != nil {
		f.Fatal(err)
	}
	if err := tsink.Close(); err != nil {
		f.Fatal(err)
	}
	tidx, err := Load(tdir)
	if err != nil {
		f.Fatal(err)
	}
	kinds := make(map[export.Kind]bool)
	for _, fs := range tidx.Files {
		for _, a := range fs.Annotations {
			kinds[a.Kind] = true
		}
	}
	if len(kinds) != 4 {
		f.Fatalf("annotation seed indexes kinds %v, want all four — the seed is vacuous", kinds)
	}
	f.Add(tidx.encode())
	// Valid frame, hostile body: a file count claiming the maximum.
	hostile := []byte{'R', 'M', 'I', 'X', indexVersion, 0xff, 0xff, 0x3f}
	f.Add(withCRC(hostile))
	// An entry whose name escapes the directory.
	evil := append([]byte{'R', 'M', 'I', 'X', indexVersion, 1}, byte(11))
	evil = append(evil, []byte("../evil.wal")...)
	f.Add(withCRC(evil))
	f.Add([]byte("not an index"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x, err := decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))*64+1<<20 {
			t.Fatalf("decode allocated %d bytes on %d input bytes", grew, len(data))
		}
		if err != nil {
			return
		}
		for _, fs := range x.Files {
			if fs.Name == "" || fs.Name != filepath.Base(fs.Name) || strings.ContainsAny(fs.Name, "/\\") {
				t.Fatalf("decoder accepted unsafe file name %q", fs.Name)
			}
		}
		re, err := decode(x.encode())
		if err != nil {
			t.Fatalf("re-decode of accepted index failed: %v", err)
		}
		if !reflect.DeepEqual(x, re) {
			t.Fatalf("round trip changed the index:\n%+v\nvs\n%+v", x, re)
		}
	})
}

// withCRC frames a hand-built body with the trailing checksum the
// decoder demands, so the fuzz seed exercises the parser, not just the
// CRC gate.
func withCRC(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	return append(append([]byte{}, body...), byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}
