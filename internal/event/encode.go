package event

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// order of WriteBinary's encode loop.
func appendEventBinary(dst []byte, e *Event) []byte {
	var scratch [binary.MaxVarintLen64]byte
	putVarint := func(v int64) {
		dst = append(dst, scratch[:binary.PutVarint(scratch[:], v)]...)
	}
	putUvarint := func(v uint64) {
		dst = append(dst, scratch[:binary.PutUvarint(scratch[:], v)]...)
	}
	putString := func(v string) {
		putUvarint(uint64(len(v)))
		dst = append(dst, v...)
	}
	putVarint(e.Seq)
	putString(e.Monitor)
	putUvarint(uint64(e.Type))
	putVarint(e.Pid)
	putString(e.Proc)
	putString(e.Cond)
	putUvarint(uint64(e.Flag))
	putVarint(e.Time.UnixNano())
	return dst
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
