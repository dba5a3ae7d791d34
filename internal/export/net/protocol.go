// Package netexport ships trace records from a detector process to a
// collector service over a stream transport — fleet mode for the
// export pipeline. A NetSink is an export.Sink whose storage is on
// the other end of a TCP connection: records are framed with the same
// codec the local WAL uses (export.EncodeFrame, into pooled buffers),
// numbered with a per-origin ship sequence, buffered until the
// collector acknowledges them durable, and replayed after partitions.
// The Collector runs the familiar server-side stack — WALSink, index
// maintainer, compaction-ready per-origin directories — so montrace
// and SeekReader queries work unchanged against each origin's
// subdirectory. It checks each record's bytes as export.DecodeRecord
// would (export.WALSink.WriteEncoded) but stores them as received, so
// an origin's records are the producer's own bytes.
//
// Delivery is at-least-once: an ack can be lost to a partition after
// the records it covers became durable, so the producer resends its
// un-acked tail on reconnect and the collector skips what it already
// applied. Because record encodings are deterministic, the collector
// stores them verbatim and export.MergeReplay collapses identical
// duplicates, the replica's replay is byte-identical to the origin's
// local WAL replay — exactly-once at the store level over an
// at-least-once wire.
package netexport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire framing: every frame is
//
//	uint32  body length (little-endian)
//	bytes   body — frame type byte, then the type's payload
//	uint32  CRC-32 (IEEE) of body
//
// The CRC makes a torn or corrupted frame a detectable connection
// failure (sever and resync via the resume handshake) instead of a
// silently mis-parsed record. Varints are unsigned (binary.AppendUvarint).
const (
	// protoVersion is the handshake version byte carried in HELLO.
	protoVersion = 1

	frameHello   byte = 1 // producer → collector: version, origin
	frameWelcome byte = 2 // collector → producer: last durable ship seq
	frameRecord  byte = 3 // producer → collector: ship seq, record bytes
	frameAck     byte = 4 // collector → producer: durable-through ship seq
	frameFlush   byte = 5 // producer → collector: flush and ack now
	frameError   byte = 6 // collector → producer: fatal protocol error text
)

// maxFrameBody bounds a frame body; larger is a protocol error. It
// must comfortably exceed the largest record the exporter can produce
// (a drained segment of one checkpoint).
const maxFrameBody = 64 << 20

// maxOriginLen bounds an origin name.
const maxOriginLen = 128

var (
	errFrameTooLarge = errors.New("netexport: frame exceeds size limit")
	errFrameCRC      = errors.New("netexport: frame CRC mismatch")
	errBadFrame      = errors.New("netexport: malformed frame")
)

// appendFrame wraps body in the length/CRC framing.
func appendFrame(dst, body []byte) []byte {
	dst, at := beginFrame(dst)
	return endFrame(append(dst, body...), at)
}

// beginFrame appends the length placeholder of a frame whose body the
// caller then appends in place, and returns the placeholder's offset;
// endFrame, given that offset, fills in the length and appends the
// body's CRC. A body built this way is framed without a copy, in a
// buffer the caller reuses.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

func endFrame(dst []byte, at int) []byte {
	body := dst[at+4:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// readFrame reads one CRC-validated frame body. It reads into buf
// when the frame fits there, so the body then shares buf's backing
// array; a nil buf always gets a fresh one.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameBody {
		return nil, fmt.Errorf("%w: body length %d", errFrameTooLarge, n)
	}
	body := buf[:0]
	if cap(body) < int(n)+4 {
		body = make([]byte, n+4)
	}
	body = body[:n+4]
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	sum := binary.LittleEndian.Uint32(body[n:])
	body = body[:n]
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w (got %08x, frame says %08x)", errFrameCRC, got, sum)
	}
	return body, nil
}

// ValidOrigin reports whether s is a legal origin name: 1–128 bytes
// of [A-Za-z0-9._-], and not a path-traversal dot name. Origins name
// per-origin subdirectories on the collector, so the alphabet is the
// portable-filename set.
func ValidOrigin(s string) bool {
	if len(s) == 0 || len(s) > maxOriginLen || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func appendHello(dst []byte, origin string) []byte {
	dst = append(dst, frameHello, protoVersion)
	dst = binary.AppendUvarint(dst, uint64(len(origin)))
	return append(dst, origin...)
}

func parseHello(body []byte) (origin string, err error) {
	if len(body) < 2 || body[0] != frameHello {
		return "", fmt.Errorf("%w: expected HELLO", errBadFrame)
	}
	if body[1] != protoVersion {
		return "", fmt.Errorf("netexport: protocol version %d, want %d", body[1], protoVersion)
	}
	rest := body[2:]
	n, used := binary.Uvarint(rest)
	if used <= 0 || n > maxOriginLen || uint64(len(rest)-used) != n {
		return "", fmt.Errorf("%w: bad HELLO origin", errBadFrame)
	}
	origin = string(rest[used:])
	if !ValidOrigin(origin) {
		return "", fmt.Errorf("netexport: invalid origin %q", origin)
	}
	return origin, nil
}

func appendWelcome(dst []byte, lastDurable uint64) []byte {
	dst = append(dst, frameWelcome)
	return binary.AppendUvarint(dst, lastDurable)
}

func parseWelcome(body []byte) (lastDurable uint64, err error) {
	if len(body) < 1 || body[0] != frameWelcome {
		return 0, fmt.Errorf("%w: expected WELCOME", errBadFrame)
	}
	n, used := binary.Uvarint(body[1:])
	if used <= 0 || 1+used != len(body) {
		return 0, fmt.Errorf("%w: bad WELCOME seq", errBadFrame)
	}
	return n, nil
}

// appendRecordFrame appends one whole RECORD frame — the bytes
// appendFrame would wrap around the body (frame type, ship seq, record
// bytes) — building the body in place, so the record bytes are copied
// once.
func appendRecordFrame(dst []byte, seq uint64, rec []byte) []byte {
	dst, at := beginFrame(dst)
	dst = append(dst, frameRecord)
	dst = binary.AppendUvarint(dst, seq)
	return endFrame(append(dst, rec...), at)
}

// recordFrameOverhead bounds the bytes appendRecordFrame adds around
// the record bytes: length, frame type, ship seq and CRC.
const recordFrameOverhead = 4 + 1 + binary.MaxVarintLen64 + 4

func parseRecordFrame(body []byte) (seq uint64, rec []byte, err error) {
	if len(body) < 1 || body[0] != frameRecord {
		return 0, nil, fmt.Errorf("%w: expected RECORD", errBadFrame)
	}
	seq, used := binary.Uvarint(body[1:])
	if used <= 0 || seq == 0 || 1+used >= len(body) {
		return 0, nil, fmt.Errorf("%w: bad RECORD header", errBadFrame)
	}
	return seq, body[1+used:], nil
}

func appendAck(dst []byte, seq uint64) []byte {
	dst = append(dst, frameAck)
	return binary.AppendUvarint(dst, seq)
}

func parseAck(body []byte) (seq uint64, err error) {
	if len(body) < 1 || body[0] != frameAck {
		return 0, fmt.Errorf("%w: expected ACK", errBadFrame)
	}
	n, used := binary.Uvarint(body[1:])
	if used <= 0 || 1+used != len(body) {
		return 0, fmt.Errorf("%w: bad ACK seq", errBadFrame)
	}
	return n, nil
}

func appendFlushFrame(dst []byte) []byte { return append(dst, frameFlush) }

func appendErrorFrame(dst []byte, msg string) []byte {
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	dst = append(dst, frameError)
	return append(dst, msg...)
}

func parseErrorFrame(body []byte) string {
	if len(body) < 1 || body[0] != frameError {
		return "malformed error frame"
	}
	return string(body[1:])
}
