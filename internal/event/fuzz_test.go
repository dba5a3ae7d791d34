package event

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"time"
)

// FuzzReadBinary throws corrupt, truncated and hostile inputs at the
// binary trace decoder. The contract: ReadBinary either returns a
// valid decode or an error — it must never panic, and a lying length
// field must never trigger a huge allocation before the decode loop
// has proven the stream real (the pre-size cap in ReadBinary).
func FuzzReadBinary(f *testing.F) {
	// Seed: a well-formed two-event trace, its truncations, and a few
	// classic liars.
	var good bytes.Buffer
	err := WriteBinary(&good, Seq{
		{Seq: 1, Monitor: "buf", Type: Enter, Pid: 3, Proc: "Send", Flag: Completed,
			Time: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)},
		{Seq: 2, Monitor: "buf", Type: SignalExit, Pid: 3, Proc: "Send", Cond: "notEmpty", Flag: Blocked,
			Time: time.Date(2001, 7, 1, 0, 0, 1, 0, time.UTC)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	for _, cut := range []int{0, 3, 4, 5, 7, good.Len() / 2, good.Len() - 1} {
		if cut < good.Len() {
			f.Add(good.Bytes()[:cut])
		}
	}
	f.Add([]byte{'R', 'M', 'T', 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // absurd count
	f.Add([]byte{'R', 'M', 'T', 1, 0x02, 0x01})                                                 // count 2, garbage event
	f.Add([]byte("not a trace at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		trace, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must round-trip: re-encoding and
		// re-decoding yields the same events.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, trace); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted trace failed: %v", err)
		}
		if len(again) != len(trace) {
			t.Fatalf("round trip changed length: %d → %d", len(trace), len(again))
		}
		for i := range trace {
			if !trace[i].Time.Equal(again[i].Time) {
				t.Fatalf("event %d time changed in round trip", i)
			}
			a, b := trace[i], again[i]
			a.Time, b.Time = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("event %d changed in round trip: %+v → %+v", i, trace[i], again[i])
			}
		}
	})
}

// FuzzVerifyBinary pins VerifyBinary to ReadBinary: for any input and
// monitor it accepts exactly when ReadBinary accepts, reads every byte
// and finds only events of that monitor, and on acceptance its count,
// first and last agree with the decoded events. Whenever ReadBinary
// decodes an event, the input is also checked against that event's
// monitor, so acceptance is fuzzed too, not only refusal.
func FuzzVerifyBinary(f *testing.F) {
	good := AppendBinary(nil, Seq{
		{Seq: 1, Monitor: "buf", Type: Enter, Pid: 3, Proc: "Send", Flag: Completed,
			Time: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)},
		{Seq: 2, Monitor: "buf", Type: SignalExit, Pid: 3, Proc: "Send", Cond: "notEmpty", Flag: Blocked,
			Time: time.Date(2001, 7, 1, 0, 0, 1, 0, time.UTC)},
	})
	f.Add(good, "buf")
	for _, cut := range []int{0, 3, 4, 5, 7, len(good) / 2, len(good) - 1} {
		f.Add(good[:cut], "buf")
	}
	f.Add([]byte{'R', 'M', 'T', 1, 0x81, 0x00}, "buf")                                              // count 1, not minimally encoded
	f.Add([]byte{'R', 'M', 'T', 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, "") // count beyond 64 bits
	f.Add(good, "alloc")                                                                            // foreign monitor
	f.Add(append(append([]byte(nil), good...), 0), "buf")                                           // a byte after the events
	for _, bad := range handOffSeeds() {
		f.Add(bad, "buf")
	}

	f.Fuzz(func(t *testing.T, data []byte, monitor string) {
		rd := bytes.NewReader(data)
		events, rerr := ReadBinary(rd)
		check := func(monitor string) {
			t.Helper()
			ok := rerr == nil && rd.Len() == 0
			for _, e := range events {
				ok = ok && e.Monitor == monitor
			}
			n, first, last, err := VerifyBinary(data, monitor)
			if (err == nil) != ok {
				t.Fatalf("VerifyBinary(%q) = %v, but ReadBinary = %v with %d bytes left", monitor, err, rerr, rd.Len())
			}
			if err != nil {
				return
			}
			if n != len(events) {
				t.Fatalf("VerifyBinary counted %d events, ReadBinary decoded %d", n, len(events))
			}
			if n > 0 && (first != events[0].Seq || last != events[n-1].Seq) {
				t.Fatalf("VerifyBinary seq range %d..%d, events span %d..%d", first, last, events[0].Seq, events[n-1].Seq)
			}
		}
		check(monitor)
		if len(events) > 0 {
			check(events[0].Monitor)
		}
	})
}

// handOffSeeds are two-event traces of monitor "buf" whose first event
// is good and whose second carries, in one of its eight fields, an
// overlong varint, a 10-byte varint (a shape only the exact walk
// reads) or the end of the input; one more has a second event of a
// foreign monitor. The fast walk accepts the first event and hands the
// second to the exact walk, so FuzzVerifyBinary mutates that hand-off,
// not only traces the fast walk refuses whole.
func handOffSeeds() [][]byte {
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)
	first := AppendBinary(nil, Seq{{Seq: 1, Monitor: "buf", Type: Enter, Pid: 3, Proc: "Send",
		Flag: Completed, Time: at}})
	first[len(binaryMagic)] = 2 // the count
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	fields := func(monitor string) [][]byte { // the second event, field by field
		return [][]byte{
			binary.AppendVarint(nil, 2), // seq
			str(monitor),
			binary.AppendUvarint(nil, uint64(SignalExit)),
			binary.AppendVarint(nil, 3), // pid
			str("Send"),
			str("notEmpty"),
			binary.AppendUvarint(nil, Blocked),
			binary.AppendVarint(nil, at.Add(time.Second).UnixNano()),
		}
	}
	trace := func(fs [][]byte) []byte { return slices.Concat(append([][]byte{first}, fs...)...) }
	good := fields("buf")
	var seeds [][]byte
	for k, f := range good {
		// The varint of field k (a string's length prefix) ends at its
		// first byte below 0x80.
		end := 1
		for f[end-1] >= 0x80 {
			end++
		}
		overlong, long := slices.Clone(good), slices.Clone(good)
		overlong[k] = slices.Concat(f[:end-1], []byte{f[end-1] | 0x80, 0}, f[end:])
		long[k] = slices.Concat([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, f[end:])
		cut := slices.Clone(good[:k+1])
		cut[k] = f[:len(f)/2]
		seeds = append(seeds, trace(overlong), trace(long), trace(cut))
	}
	return append(seeds, trace(fields("alloc")))
}

// TestReadBinaryLyingCountDoesNotOverAllocate pins the pre-size guard
// directly: a tiny stream whose header claims 2^29 events must fail
// with a decode error, not allocate gigabytes first.
func TestReadBinaryLyingCountDoesNotOverAllocate(t *testing.T) {
	// Not parallel: the allocation measurement below would absorb other
	// tests' allocations.
	var buf bytes.Buffer
	buf.Write([]byte{'R', 'M', 'T', 1})
	// uvarint 1<<29 = 0x80 0x80 0x80 0x80 0x02, then nothing: the
	// stream dies on the first event.
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x02})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadBinary accepted a truncated stream claiming 2^29 events")
	}
	runtime.ReadMemStats(&after)
	// 2^29 events would be tens of GiB of Seq backing array; the guard
	// caps the speculative allocation to 4096 entries (< 1 MiB).
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("ReadBinary allocated %d bytes on a lying 9-byte stream", grew)
	}
}

// FuzzAppendBinary pins the two encoders to each other: any trace the
// decoder accepts must produce byte-identical output through
// WriteBinary (the io.Writer path) and AppendBinary (the pooled-buffer
// path the batched WAL sink uses), and that encoding must round-trip.
// A divergence here would mean a WAL written by the pooled path reads
// back differently from one written by the legacy path.
func FuzzAppendBinary(f *testing.F) {
	var good bytes.Buffer
	err := WriteBinary(&good, Seq{
		{Seq: 1, Monitor: "buf", Type: Enter, Pid: 3, Proc: "Send", Flag: Completed,
			Time: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC)},
		{Seq: 2, Monitor: "buf", Type: Wait, Pid: 3, Proc: "Send", Cond: "notEmpty", Flag: Blocked,
			Time: time.Date(2001, 7, 1, 0, 0, 1, 0, time.UTC)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(AppendBinary(nil, nil)) // empty trace header
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		trace, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w bytes.Buffer
		if err := WriteBinary(&w, trace); err != nil {
			t.Fatalf("WriteBinary of accepted trace failed: %v", err)
		}
		appended := AppendBinary(nil, trace)
		if !bytes.Equal(appended, w.Bytes()) {
			t.Fatalf("encoders diverged for %d events:\n  append %x\n  write  %x",
				len(trace), appended, w.Bytes())
		}
		again, err := ReadBinary(bytes.NewReader(appended))
		if err != nil {
			t.Fatalf("decode of AppendBinary output failed: %v", err)
		}
		if len(again) != len(trace) {
			t.Fatalf("round trip changed length: %d → %d", len(trace), len(again))
		}
	})
}
