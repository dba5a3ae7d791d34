package event

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"time"
)

// Codecs for exporting/importing history traces. Two formats are
// supported:
//
//   - JSON Lines (one event object per line), for human inspection and
//     interoperability with other tooling;
//   - a compact length-prefixed binary format, for large traces.
//
// Both round-trip every field including the timestamp at nanosecond
// resolution.

// ErrBadMagic reports that a binary stream does not start with the
// trace header.
var ErrBadMagic = errors.New("event: bad trace magic")

// binaryMagic identifies a binary trace stream; the trailing byte is a
// format version.
var binaryMagic = [4]byte{'R', 'M', 'T', 1}

// WriteJSON writes the sequence as JSON Lines.
func WriteJSON(w io.Writer, s Seq) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range s {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("event: encode json event %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("event: flush json trace: %w", err)
	}
	return nil
}

// ReadJSON reads a JSON Lines trace until EOF.
func ReadJSON(r io.Reader) (Seq, error) {
	dec := json.NewDecoder(r)
	var out Seq
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("event: decode json event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// WriteBinary writes the sequence in the compact binary trace format.
func WriteBinary(w io.Writer, s Seq) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("event: write trace magic: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putString := func(v string) error {
		if err := putUvarint(uint64(len(v))); err != nil {
			return err
		}
		_, err := bw.WriteString(v)
		return err
	}
	if err := putUvarint(uint64(len(s))); err != nil {
		return fmt.Errorf("event: write trace length: %w", err)
	}
	for i, e := range s {
		err := errors.Join(
			putVarint(e.Seq),
			putString(e.Monitor),
			putUvarint(uint64(e.Type)),
			putVarint(e.Pid),
			putString(e.Proc),
			putString(e.Cond),
			putUvarint(uint64(e.Flag)),
			putVarint(e.Time.UnixNano()),
		)
		if err != nil {
			return fmt.Errorf("event: write binary event %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("event: flush binary trace: %w", err)
	}
	return nil
}

// AppendBinary appends the sequence's binary trace encoding to dst and
// returns the extended slice, exactly the bytes WriteBinary would have
// written (pinned by TestAppendBinaryMatchesWriteBinary and
// FuzzAppendBinary). It is the allocation-free encode for the export
// hot path: callers hand it a pooled buffer (dst may be nil) and the
// only allocations are the amortised growth of dst itself.
func AppendBinary(dst []byte, s Seq) []byte {
	dst = append(dst, binaryMagic[:]...)
	var scratch [binary.MaxVarintLen64]byte
	dst = append(dst, scratch[:binary.PutUvarint(scratch[:], uint64(len(s)))]...)
	for i := range s {
		dst = appendEventBinary(dst, &s[i])
	}
	return dst
}

// appendEventBinary appends one event's binary encoding — the field
// order of WriteBinary's encode loop. It reserves the event's largest
// encoding once (eight varints and its three strings) and writes each
// field by index into that reservation, so no field pays for an
// append's capacity check.
func appendEventBinary(dst []byte, e *Event) []byte {
	dst = slices.Grow(dst, 8*binary.MaxVarintLen64+len(e.Monitor)+len(e.Proc)+len(e.Cond))
	b, i := dst[:cap(dst)], len(dst)
	i += binary.PutVarint(b[i:], e.Seq)
	i += putPrefixed(b[i:], e.Monitor)
	i += binary.PutUvarint(b[i:], uint64(e.Type))
	i += binary.PutVarint(b[i:], e.Pid)
	i += putPrefixed(b[i:], e.Proc)
	i += putPrefixed(b[i:], e.Cond)
	i += binary.PutUvarint(b[i:], uint64(e.Flag))
	i += binary.PutVarint(b[i:], e.Time.UnixNano())
	return b[:i]
}

// putPrefixed writes s length-prefixed at the start of b and returns
// the bytes written.
func putPrefixed(b []byte, s string) int {
	n := binary.PutUvarint(b, uint64(len(s)))
	return n + copy(b[n:], s)
}

// errOverlongVarint reports a varint padded with continuation bytes.
var errOverlongVarint = errors.New("event: varint not minimally encoded")

// errVarintOverflow reports a varint beyond 64 bits.
var errVarintOverflow = errors.New("event: varint overflows a 64-bit integer")

// ReadUvarint is binary.ReadUvarint restricted to the minimal encoding
// binary.AppendUvarint writes. A value padded with continuation bytes
// decodes to the same number but re-encodes to different bytes, so the
// trace and record decoders refuse it: whatever they accept re-encodes
// byte-identically.
func ReadUvarint(r io.ByteReader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarintOverflow
			}
			if i > 0 && b == 0 {
				return 0, errOverlongVarint
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errVarintOverflow
}

// ReadVarint is binary.ReadVarint restricted to the minimal encoding,
// like ReadUvarint.
func ReadVarint(r io.ByteReader) (int64, error) {
	ux, err := ReadUvarint(r)
	return unzigzag(ux), err
}

// ReadBinary reads a binary trace written by WriteBinary. A reader
// that already implements io.ByteReader (a bytes.Reader, a
// bufio.Reader) is read directly, so on return it sits right after the
// trace; any other reader is buffered.
func ReadBinary(r io.Reader) (Seq, error) {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("event: read trace magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, ErrBadMagic
	}
	getString := func() (string, error) {
		n, err := ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("event: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	count, err := ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("event: read trace length: %w", err)
	}
	if count > 1<<30 {
		return nil, fmt.Errorf("event: implausible trace length %d", count)
	}
	// Pre-size from the declared count, but cap the speculative
	// allocation: the count field of a corrupt or truncated stream must
	// not make the reader balloon before the decode loop fails.
	out := make(Seq, 0, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		var e Event
		if e.Seq, err = ReadVarint(br); err != nil {
			return nil, fmt.Errorf("event: read event %d seq: %w", i, err)
		}
		if e.Monitor, err = getString(); err != nil {
			return nil, fmt.Errorf("event: read event %d monitor: %w", i, err)
		}
		typ, err := ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: read event %d type: %w", i, err)
		}
		e.Type = Type(typ)
		if e.Pid, err = ReadVarint(br); err != nil {
			return nil, fmt.Errorf("event: read event %d pid: %w", i, err)
		}
		if e.Proc, err = getString(); err != nil {
			return nil, fmt.Errorf("event: read event %d proc: %w", i, err)
		}
		if e.Cond, err = getString(); err != nil {
			return nil, fmt.Errorf("event: read event %d cond: %w", i, err)
		}
		flag, err := ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: read event %d flag: %w", i, err)
		}
		e.Flag = int(flag)
		nanos, err := ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("event: read event %d time: %w", i, err)
		}
		e.Time = time.Unix(0, nanos).UTC()
		out = append(out, e)
	}
	return out, nil
}

// VerifyBinary checks that b is exactly one binary trace whose every
// event belongs to monitor, without building the events: it accepts
// exactly what ReadBinary(bytes.NewReader(b)) accepts, provided the
// trace ends at the end of b and every event's Monitor equals monitor.
// n is the event count, and first and last are the Seq of the first
// and the last event (both 0 for an empty trace). It walks b in place
// and allocates nothing, which is what lets a collector store a
// received segment payload verbatim instead of decoding it.
//
// Each event is first offered to acceptEvent, a fast walk that only
// accepts; an event it cannot vouch for is walked again from its start
// by checkEvent, the exact walk, which accepts it or gives the error.
// The verdict and the error text are therefore checkEvent's alone
// (pinned by TestVerifyBinaryFastPathMatchesReference).
func VerifyBinary(b []byte, monitor string) (n int, first, last int64, err error) {
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
	// Seq is each event's first field, so the first and the last Seq
	// are read once the walk has accepted them, from these offsets.
	firstAt, lastAt := off, off
	for i := uint64(0); i < count; i++ {
		lastAt = off
		if next := acceptEvent(b, off, monitor); next > 0 {
			off = next
		} else if off, err = checkEvent(b, off, i, monitor); err != nil {
			return 0, 0, 0, err
		}
	}
	if rest := len(b) - off; rest > 0 {
		return 0, 0, 0, fmt.Errorf("event: %d trailing bytes after the trace", rest)
	}
	if count > 0 {
		ux, _ := binary.Uvarint(b[firstAt:])
		first = unzigzag(ux)
		ux, _ = binary.Uvarint(b[lastAt:])
		last = unzigzag(ux)
	}
	return int(count), first, last, nil
}

// checkEvent checks the i-th event, at b[off:], under ReadBinary's
// rules and returns the offset just past it, or the error ReadBinary's
// verdict calls for.
func checkEvent(b []byte, off int, i uint64, monitor string) (int, error) {
	seq, off, err := uvarintAt(b, off)
	if err != nil {
		return off, fmt.Errorf("event: read event %d seq: %w", i, err)
	}
	var mon []byte
	if mon, off, err = stringAt(b, off); err != nil {
		return off, fmt.Errorf("event: read event %d monitor: %w", i, err)
	}
	if string(mon) != monitor {
		return off, fmt.Errorf("event: event %d belongs to monitor %q, want %q", unzigzag(seq), mon, monitor)
	}
	if _, off, err = uvarintAt(b, off); err != nil {
		return off, fmt.Errorf("event: read event %d type: %w", i, err)
	}
	if _, off, err = uvarintAt(b, off); err != nil {
		return off, fmt.Errorf("event: read event %d pid: %w", i, err)
	}
	if _, off, err = stringAt(b, off); err != nil {
		return off, fmt.Errorf("event: read event %d proc: %w", i, err)
	}
	if _, off, err = stringAt(b, off); err != nil {
		return off, fmt.Errorf("event: read event %d cond: %w", i, err)
	}
	if _, off, err = uvarintAt(b, off); err != nil {
		return off, fmt.Errorf("event: read event %d flag: %w", i, err)
	}
	if _, off, err = uvarintAt(b, off); err != nil {
		return off, fmt.Errorf("event: read event %d time: %w", i, err)
	}
	return off, nil
}

// acceptEvent is VerifyBinary's fast walk over the event at b[off:]. It
// returns the offset just past the event when every field is one
// checkEvent accepts in a shape it handles — varints of at most nine
// bytes with nine bytes readable at their start, strings shorter than
// 128 bytes, the monitor's own name — and 0 otherwise. A 0 is no
// verdict: the caller walks the event again with checkEvent.
func acceptEvent(b []byte, off int, monitor string) int {
	if off = skipUvarint(b, off); off < 0 { // seq
		return 0
	}
	if len(monitor) >= 0x80 || off >= len(b) || int(b[off]) != len(monitor) ||
		len(b)-off-1 < len(monitor) || string(b[off+1:off+1+len(monitor)]) != monitor {
		return 0
	}
	off += 1 + len(monitor)
	if off = skipUvarint(b, off); off < 0 { // type
		return 0
	}
	if off = skipUvarint(b, off); off < 0 { // pid
		return 0
	}
	if off = skipString(b, off); off < 0 { // proc
		return 0
	}
	if off = skipString(b, off); off < 0 { // cond
		return 0
	}
	if off = skipUvarint(b, off); off < 0 { // flag
		return 0
	}
	if off = skipUvarint(b, off); off < 0 { // time
		return 0
	}
	return off
}

// skipUvarint returns the offset just past the minimally encoded
// uvarint at b[off:], or -1 when fewer than nine bytes are left at
// off, the varint is not minimal, or it is longer than nine bytes. One
// 8-byte load finds the terminator of a varint of up to eight bytes:
// the lowest byte with its high bit clear. Small enough to inline.
func skipUvarint(b []byte, off int) int {
	if len(b)-off < 9 {
		return -1
	}
	w := binary.LittleEndian.Uint64(b[off:])
	if m := ^w & 0x8080808080808080; m != 0 {
		n := bits.TrailingZeros64(m) >> 3 // the terminator's index
		if n > 0 && byte(w>>(n<<3)) == 0 {
			return -1 // a zero terminator pads the varint
		}
		return off + n + 1
	}
	// Eight continuation bytes: a ninth byte in 1..0x7f ends a minimal
	// 63-bit value, which cannot overflow.
	if b[off+8]-1 < 0x7f {
		return off + 9
	}
	return -1
}

// skipString returns the offset just past the string at b[off:] when
// its length prefix is one byte and the string fits in b, and -1
// otherwise.
func skipString(b []byte, off int) int {
	if off >= len(b) || b[off] >= 0x80 {
		return -1
	}
	if end := off + 1 + int(b[off]); end <= len(b) {
		return end
	}
	return -1
}

// uvarintAt reads the uvarint at b[off:] under ReadUvarint's rules and
// returns it with the offset just past it. binary.Uvarint on the slice
// is the fast path; the checks after it give ReadUvarint's verdicts.
func uvarintAt(b []byte, off int) (uint64, int, error) {
	rest := b[off:]
	v, n := binary.Uvarint(rest)
	switch {
	case n > 1 && rest[n-1] == 0:
		return 0, off, errOverlongVarint
	case n > 0:
		return v, off + n, nil
	case n < 0 || len(rest) >= binary.MaxVarintLen64:
		return 0, off, errVarintOverflow
	default:
		return 0, off, io.ErrUnexpectedEOF
	}
}

// stringAt reads the length-prefixed string at b[off:] under
// ReadBinary's rules and returns its bytes, a sub-slice of b, with the
// offset just past it.
func stringAt(b []byte, off int) ([]byte, int, error) {
	n, off, err := uvarintAt(b, off)
	if err != nil {
		return nil, off, err
	}
	if n > 1<<20 {
		return nil, off, fmt.Errorf("event: implausible string length %d", n)
	}
	if uint64(len(b)-off) < n {
		return nil, off, io.ErrUnexpectedEOF
	}
	return b[off : off+int(n)], off + int(n), nil
}

// unzigzag maps a zigzag-encoded uvarint back to the signed value, as
// ReadVarint does.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}
