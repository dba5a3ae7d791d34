package event

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleSeq() Seq {
	return Seq{
		mk(1, Enter, 1, "Send", "", 1),
		mk(2, Wait, 1, "Send", "notFull", 0),
		mk(3, Enter, 2, "Receive", "", 1),
		mk(4, SignalExit, 2, "Receive", "notFull", 1),
		mk(5, SignalExit, 1, "Send", "", 0),
	}
}

func seqsEqual(a, b Seq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Seq != y.Seq || x.Monitor != y.Monitor || x.Type != y.Type ||
			x.Pid != y.Pid || x.Proc != y.Proc || x.Cond != y.Cond ||
			x.Flag != y.Flag || !x.Time.Equal(y.Time) {
			return false
		}
	}
	return true
}

func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := sampleSeq()
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !seqsEqual(s, got) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", s, got)
	}
}

func TestJSONIsLineOriented(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleSeq()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(sampleSeq()) {
		t.Fatalf("got %d lines, want %d", lines, len(sampleSeq()))
	}
}

func TestJSONReadGarbage(t *testing.T) {
	t.Parallel()
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("ReadJSON accepted garbage")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	s := sampleSeq()
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !seqsEqual(s, got) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", s, got)
	}
}

func TestBinaryEmptySeq(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatalf("WriteBinary(nil): %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events, want 0", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	t.Parallel()
	if _, err := ReadBinary(strings.NewReader("XXXXgarbage")); err != ErrBadMagic {
		t.Fatalf("ReadBinary bad magic error = %v, want ErrBadMagic", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleSeq()); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, 10, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("ReadBinary accepted a trace truncated at %d bytes", cut)
		}
	}
}

func randomEvent(rng *rand.Rand, seq int64) Event {
	typs := []Type{Enter, Wait, SignalExit}
	typ := typs[rng.Intn(len(typs))]
	cond := ""
	if typ != Enter {
		cond = []string{"notFull", "notEmpty", "free", "c"}[rng.Intn(4)]
	}
	return Event{
		Seq:     seq,
		Monitor: []string{"buf", "alloc", "rw"}[rng.Intn(3)],
		Type:    typ,
		Pid:     rng.Int63n(100) + 1,
		Proc:    []string{"Send", "Receive", "Acquire", "Release"}[rng.Intn(4)],
		Cond:    cond,
		Flag:    rng.Intn(2),
		Time:    t0.Add(time.Duration(rng.Int63n(1e9))).UTC(),
	}
}

// TestCodecsQuickRoundTrip fuzzes both codecs with random traces.
// TestReadUvarintRefusesOverlong pins the strict varint readers: every
// minimal encoding decodes, while padding with continuation bytes and
// overflow past 64 bits are refused.
func TestReadUvarintRefusesOverlong(t *testing.T) {
	t.Parallel()
	for _, v := range []int64{0, 1, -1, 127, 128, -129, math.MaxInt64, math.MinInt64} {
		got, err := ReadVarint(bytes.NewReader(binary.AppendVarint(nil, v)))
		if err != nil || got != v {
			t.Errorf("ReadVarint(AppendVarint(%d)) = %d, %v", v, got, err)
		}
	}
	if got, err := ReadUvarint(bytes.NewReader(binary.AppendUvarint(nil, math.MaxUint64))); err != nil || got != math.MaxUint64 {
		t.Errorf("ReadUvarint(max) = %d, %v", got, err)
	}
	for _, in := range [][]byte{
		{0x80, 0x00},       // 0 padded to two bytes
		{0xff, 0x00},       // 127 padded to two bytes
		{0x80, 0x80, 0x00}, // 0 padded to three bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // > 64 bits
	} {
		if v, err := ReadUvarint(bytes.NewReader(in)); err == nil {
			t.Errorf("ReadUvarint(%x) = %d, want an error", in, v)
		}
	}
}

// TestReadBinaryStopsAfterTrace pins that ReadBinary reads a byte
// reader directly: it consumes exactly the trace and leaves what
// follows, which is how a record decoder finds trailing bytes.
func TestReadBinaryStopsAfterTrace(t *testing.T) {
	t.Parallel()
	r := bytes.NewReader(append(AppendBinary(nil, sampleSeq()), "tail"...))
	if _, err := ReadBinary(r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != len("tail") {
		t.Fatalf("%d bytes left after the trace, want %d", r.Len(), len("tail"))
	}
}

func TestCodecsQuickRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Seq, 0, n)
		for i := int64(1); i <= int64(n); i++ {
			s = append(s, randomEvent(rng, i))
		}
		var jb, bb bytes.Buffer
		if WriteJSON(&jb, s) != nil || WriteBinary(&bb, s) != nil {
			return false
		}
		js, err1 := ReadJSON(&jb)
		bs, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil && seqsEqual(s, js) && seqsEqual(s, bs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBinaryMatchesWriteBinary(t *testing.T) {
	t.Parallel()
	for _, s := range []Seq{nil, {}, sampleSeq()} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		got := AppendBinary(nil, s)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("AppendBinary diverged from WriteBinary for %d events:\n  append %x\n  write  %x",
				len(s), got, buf.Bytes())
		}
		// Appending onto an existing prefix must leave the prefix intact
		// and produce the same encoding after it — the pooled-buffer
		// contract the WAL sink relies on.
		withPrefix := AppendBinary([]byte("prefix"), s)
		if !bytes.HasPrefix(withPrefix, []byte("prefix")) || !bytes.Equal(withPrefix[6:], buf.Bytes()) {
			t.Fatalf("AppendBinary with prefix diverged")
		}
	}
}

func TestAppendBinaryIsAllocFreeIntoSizedBuffer(t *testing.T) {
	// Not parallel: AllocsPerRun measures the whole process heap.
	s := sampleSeq()
	dst := make([]byte, 0, 4096)
	if avg := testing.AllocsPerRun(100, func() {
		dst = AppendBinary(dst[:0], s)
	}); avg != 0 {
		t.Fatalf("AppendBinary into a sized buffer allocates %.1f times per call, want 0", avg)
	}
}

func TestVerifyBinaryAllocatesNothing(t *testing.T) {
	// Not parallel: AllocsPerRun measures the whole process heap.
	rng := rand.New(rand.NewSource(1))
	s := make(Seq, 256)
	for i := range s {
		s[i] = randomEvent(rng, int64(i+1))
		s[i].Monitor = "buf"
	}
	b := AppendBinary(nil, s)
	var n int
	var first, last int64
	var err error
	if avg := testing.AllocsPerRun(100, func() {
		n, first, last, err = VerifyBinary(b, "buf")
	}); avg != 0 {
		t.Fatalf("VerifyBinary allocates %.1f times per call on a %d-event payload, want 0", avg, len(s))
	}
	if err != nil || n != len(s) || first != 1 || last != int64(len(s)) {
		t.Fatalf("VerifyBinary = %d, %d..%d, %v; want %d, 1..%d, nil", n, first, last, err, len(s), len(s))
	}
}
