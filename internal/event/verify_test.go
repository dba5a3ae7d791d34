package event

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// referenceVerifyBinary is VerifyBinary before its fast walk: every
// field of every event read by uvarintAt and stringAt. It is the
// reference TestVerifyBinaryFastPathMatchesReference holds
// VerifyBinary to, verdicts and error text alike.
func referenceVerifyBinary(b []byte, monitor string) (n int, first, last int64, err error) {
	if len(b) < len(binaryMagic) {
		return 0, 0, 0, fmt.Errorf("event: read trace magic: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(b[:4]) != binaryMagic {
		return 0, 0, 0, ErrBadMagic
	}
	off := len(binaryMagic)
	count, off, err := uvarintAt(b, off)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("event: read trace length: %w", err)
	}
	if count > 1<<30 {
		return 0, 0, 0, fmt.Errorf("event: implausible trace length %d", count)
	}
	for i := uint64(0); i < count; i++ {
		var seq uint64
		if seq, off, err = uvarintAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d seq: %w", i, err)
		}
		last = unzigzag(seq)
		if i == 0 {
			first = last
		}
		var mon []byte
		if mon, off, err = stringAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d monitor: %w", i, err)
		}
		if string(mon) != monitor {
			return 0, 0, 0, fmt.Errorf("event: event %d belongs to monitor %q, want %q", last, mon, monitor)
		}
		if _, off, err = uvarintAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d type: %w", i, err)
		}
		if _, off, err = uvarintAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d pid: %w", i, err)
		}
		if _, off, err = stringAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d proc: %w", i, err)
		}
		if _, off, err = stringAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d cond: %w", i, err)
		}
		if _, off, err = uvarintAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d flag: %w", i, err)
		}
		if _, off, err = uvarintAt(b, off); err != nil {
			return 0, 0, 0, fmt.Errorf("event: read event %d time: %w", i, err)
		}
	}
	if rest := len(b) - off; rest > 0 {
		return 0, 0, 0, fmt.Errorf("event: %d trailing bytes after the trace", rest)
	}
	return int(count), first, last, nil
}

// shapeTraces are traces with every field shape the fast walk meets or
// hands off: 2-, 3-, 8- and 9-byte varints, a 10-byte pid, an empty
// Cond, a 130-byte Proc and, in the second trace, a 130-byte monitor
// name, whose length prefixes take two bytes. want lists, per event,
// whether acceptEvent accepts it unmutated.
func shapeTraces() []struct {
	monitor string
	seq     Seq
	want    []bool
} {
	at := time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC) // a 9-byte varint
	mk := func(mon string, seq int64, typ Type, pid int64, proc, cond string, flag int) Event {
		return Event{Seq: seq, Monitor: mon, Type: typ, Pid: pid, Proc: proc, Cond: cond,
			Flag: flag, Time: at.Add(time.Duration(seq))}
	}
	long := strings.Repeat("m", 130)
	return []struct {
		monitor string
		seq     Seq
		want    []bool
	}{
		{"buf", Seq{
			mk("buf", 100, Enter, 3, "Send", "", Completed),                         // 2-byte seq, empty cond
			mk("buf", 1<<20, Wait, math.MinInt64, "Receive", "notEmpty", Blocked),   // 10-byte pid
			mk("buf", 1<<20+1, SignalExit, 1<<54, strings.Repeat("p", 130), "c", 1), // 8-byte pid, 2-byte proc length
			mk("buf", 1<<20+2, SignalExit, -(1 << 60), "Send", "notFull", 0),        // 9-byte pid
			mk("buf", 1<<20+3, Enter, 4, "Receive", "", Blocked),
		}, []bool{true, false, false, true, true}},
		{long, Seq{
			mk(long, 7, Enter, 1, "Op", "", Completed),
			mk(long, 8, SignalExit, 1, "Op", "ok", Blocked),
		}, []bool{false, false}},
	}
}

// TestVerifyBinaryFastPathMatchesReference holds VerifyBinary, whose
// fast walk hands any event it cannot accept to the exact walk, to
// referenceVerifyBinary: on traces with every field shape, each byte
// set to each of its 256 values and the trace cut at every length must
// give the reference's n, first, last and error text.
func TestVerifyBinaryFastPathMatchesReference(t *testing.T) {
	t.Parallel()
	same := func(t *testing.T, what string, b []byte, monitor string) {
		t.Helper()
		n, first, last, err := VerifyBinary(b, monitor)
		rn, rfirst, rlast, rerr := referenceVerifyBinary(b, monitor)
		if fmt.Sprint(err) != fmt.Sprint(rerr) || n != rn || first != rfirst || last != rlast {
			t.Fatalf("%s: VerifyBinary = %d, %d..%d, %v; reference = %d, %d..%d, %v",
				what, n, first, last, err, rn, rfirst, rlast, rerr)
		}
	}
	for _, tr := range shapeTraces() {
		b := AppendBinary(nil, tr.seq)
		// The fast walk must take the events it can and leave the rest:
		// otherwise the mutations below test only one of the two walks.
		off := len(binaryMagic) + 1
		for i, e := range tr.seq {
			next, err := checkEvent(b, off, uint64(i), e.Monitor)
			if err != nil {
				t.Fatalf("event %d of %q: %v", i, tr.monitor, err)
			}
			if got := acceptEvent(b, off, e.Monitor); (got != 0) != tr.want[i] || (got != 0 && got != next) {
				t.Fatalf("event %d of %q: acceptEvent = %d, checkEvent = %d; want fast walk %v",
					i, tr.monitor, got, next, tr.want[i])
			}
			off = next
		}
		same(t, "unmutated", b, tr.monitor)
		if n, _, _, err := VerifyBinary(b, tr.monitor); err != nil || n != len(tr.seq) {
			t.Fatalf("VerifyBinary(%q) = %d, %v; want %d events", tr.monitor, n, err, len(tr.seq))
		}
		mut := make([]byte, len(b))
		for i := range b {
			for v := 0; v < 256; v++ {
				copy(mut, b)
				mut[i] = byte(v)
				same(t, fmt.Sprintf("byte %d set to %#02x", i, v), mut, tr.monitor)
			}
		}
		for cut := 0; cut <= len(b); cut++ {
			same(t, fmt.Sprintf("cut at %d", cut), b[:cut], tr.monitor)
		}
	}
}
