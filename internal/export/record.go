package export

// The standalone record codec and the one decoded form of a record.
// A WAL file is a magic header followed by framed records; this file
// exposes the record framing itself — encode one record to bytes,
// decode or check one record's bytes — so the same encoding that lands
// on local disk can travel a wire (see internal/export/net) and land
// in a sink on the far side byte-for-byte identically
// (WALSink.WriteEncoded stores the checked bytes as received). Sharing
// appendRecordHeader and Record.header with WALSink is what makes that
// identity a structural property rather than a convention: there is
// exactly one encoder.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// appendRecordHeader appends the v2 record header (type byte, monitor,
// seq range, count, payload length, payload CRC) for the given payload.
// The single shared encoder behind both the WAL writer and the wire
// codec.
func appendRecordHeader(dst []byte, typ Kind, monitor string, first, last int64, count uint32, payload []byte) []byte {
	dst = append(dst, byte(typ))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(monitor)))
	dst = append(dst, monitor...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(first))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(last))
	dst = binary.LittleEndian.AppendUint32(dst, count)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return dst
}

// appendString appends a length-prefixed string — the string field
// encoding every annotation payload codec shares.
func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// readString reverses appendString. A length beyond maxMonitorName is
// refused before allocating, so a corrupt prefix cannot balloon the
// reader.
func readString(br *bytes.Reader) (string, error) {
	n, err := event.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxMonitorName {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Record is one trace record in decoded form — exactly one of the five
// kinds is set. It is the single form every layer between the WAL
// bytes and Replay handles: the reader decodes into it, the index
// locates it (AnnotationInfo), compaction carries it, and the
// exporter, the sinks and the wire route it. Only Replay splits it
// into typed slices. The zero Record is invalid.
type Record struct {
	Segment   *Segment
	Marker    *history.RecoveryMarker
	Health    *obs.HealthRecord
	Tombstone *Tombstone
	Alert     *obsrules.Alert
}

// header derives r's record-header fields from r itself; ok is false
// for the zero Record. The writers (WALSink, AppendRecord) frame a
// record with it and the reader checks a decoded payload against the
// header it arrived under with it, so the header layout of each kind
// is stated once:
//
//   - segment: its monitor, seq range and event count;
//   - marker: its monitor, the reset horizon twice and the discarded-
//     event count;
//   - health snapshot and alert: no monitor (they judge the whole
//     pipeline, not one monitor), the capture horizon twice, count 0;
//   - tombstone: no monitor (it describes the whole store), the
//     retention horizon twice and the dropped-event total, saturated
//     into the header's uint32 (the payload carries the exact value).
//
// Every annotation carries its horizon in the header, so the index
// places it without decoding the payload.
func (r Record) header() (h recHeader, ok bool) {
	switch {
	case r.Segment != nil:
		s := r.Segment
		h = recHeader{typ: KindSegment, monitor: s.Monitor, first: s.First(), last: s.Last(), count: uint32(len(s.Events))}
	case r.Marker != nil:
		m := r.Marker
		h = recHeader{typ: KindMarker, monitor: m.Monitor, first: m.Horizon, last: m.Horizon, count: uint32(m.Dropped)}
	case r.Health != nil:
		h = recHeader{typ: KindHealth, first: r.Health.Seq, last: r.Health.Seq}
	case r.Tombstone != nil:
		t := r.Tombstone
		h = recHeader{typ: KindTombstone, first: t.Horizon, last: t.Horizon, count: saturatingUint32(t.Events)}
	case r.Alert != nil:
		h = recHeader{typ: KindAlert, first: r.Alert.Seq, last: r.Alert.Seq}
	default:
		return h, false
	}
	return h, true
}

// Info returns r's locator fields — its kind, monitor and sequence
// horizon (the header's first seq) — as the index records them; Offset
// is left zero.
func (r Record) Info() AnnotationInfo {
	h, _ := r.header()
	return AnnotationInfo{Kind: h.typ, Monitor: h.monitor, Horizon: h.first}
}

// appendPayload appends r's self-contained payload encoding to dst.
func (r Record) appendPayload(dst []byte) []byte {
	switch {
	case r.Segment != nil:
		return event.AppendBinary(dst, r.Segment.Events)
	case r.Marker != nil:
		return appendMarker(dst, *r.Marker)
	case r.Health != nil:
		return appendHealth(dst, *r.Health)
	case r.Tombstone != nil:
		return appendTombstone(dst, *r.Tombstone)
	case r.Alert != nil:
		return appendAlert(dst, *r.Alert)
	}
	return dst
}

// Key is r's exact-duplicate identity: its kind byte followed by its
// canonical payload encoding. Every payload codec is deterministic, so
// two records share a key exactly when their bytes are the same —
// which is how replay and compaction collapse the duplicates an
// interrupted compaction leaves behind, with one rule for every kind
// (health snapshots and tombstones hold slices, so Go equality could
// not serve).
func (r Record) Key() string {
	h, _ := r.header()
	return string(r.appendPayload([]byte{byte(h.typ)}))
}

// AppendSegmentRecord appends one fully framed segment record
// (header + payload, no file magic) and returns the extended buffer.
// The bytes are exactly what WALSink.WriteSegment would put on disk.
func AppendSegmentRecord(dst []byte, seg Segment) ([]byte, error) {
	return AppendRecord(dst, Record{Segment: &seg})
}

// AppendRecord appends r fully framed; the bytes are exactly what the
// matching WALSink write would put on disk.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	h, p, err := encodePayload(r)
	if err != nil {
		return dst, err
	}
	return appendFramed(dst, h, p), nil
}

// EncodeFrame returns r fully framed, the bytes AppendRecord appends,
// in a pooled buffer of the smallest frame class that holds them. The
// caller owns the buffer until it hands it back with PutFrame, which
// it may do only once nothing reads the bytes any more.
func EncodeFrame(r Record) (*[]byte, error) {
	h, p, err := encodePayload(r)
	if err != nil {
		return nil, err
	}
	f := frameBufs.get(recordHeaderSize + len(h.monitor) + len(*p))
	*f = appendFramed(*f, h, p)
	return f, nil
}

// PutFrame returns a buffer EncodeFrame handed out to its pool.
func PutFrame(f *[]byte) { frameBufs.put(f) }

// encodePayload checks that r can be framed and encodes its payload
// into a pooled payload buffer, which appendFramed returns.
func encodePayload(r Record) (recHeader, *[]byte, error) {
	h, ok := r.header()
	switch {
	case !ok:
		return h, nil, fmt.Errorf("export: encode record: empty record")
	case r.Segment != nil && len(r.Segment.Events) == 0:
		return h, nil, fmt.Errorf("export: encode record: empty segment")
	case len(h.monitor) > maxMonitorName:
		return h, nil, fmt.Errorf("export: monitor name %d bytes long (limit %d)", len(h.monitor), maxMonitorName)
	}
	hint := 0
	if r.Segment != nil {
		hint = 16 + 48*len(r.Segment.Events) // as WALSink.WriteSegment sizes it
	}
	p := payloadBufs.get(hint)
	*p = r.appendPayload((*p)[:0])
	return h, p, nil
}

// appendFramed appends the record header h and the payload *p to dst,
// then returns p to its pool.
func appendFramed(dst []byte, h recHeader, p *[]byte) []byte {
	dst = appendRecordHeader(dst, h.typ, h.monitor, h.first, h.last, h.count, *p)
	dst = append(dst, *p...)
	payloadBufs.put(p)
	return dst
}

// DecodeRecord decodes exactly one framed record from b, applying the
// same CRC and header/payload-agreement validation the WAL reader
// applies on disk. Trailing bytes are an error: a frame carries one
// record.
func DecodeRecord(b []byte) (Record, error) {
	h, payload, err := checkFrame(b, nil)
	if err != nil {
		return Record{}, err
	}
	rec, err := decodeChecked(&h, payload)
	if err != nil {
		return Record{}, fmt.Errorf("export: decode record: %w", err)
	}
	return rec, nil
}

// verifyRecord applies DecodeRecord's checks to b, but checks a
// segment's payload in place (event.VerifyBinary) instead of building
// its events: it accepts exactly what DecodeRecord accepts. It returns
// the header, parsed in place (checkFrame), and the payload, a
// sub-slice of b, and the decoded record for an annotation; for a
// segment rec has no field set.
func verifyRecord(b []byte, names *summaryBuilder) (h recHeader, payload []byte, rec Record, err error) {
	if h, payload, err = checkFrame(b, names); err != nil {
		return recHeader{}, nil, Record{}, err
	}
	if h.typ != KindSegment {
		rec, err = decodeChecked(&h, payload)
	} else if n, first, last, verr := event.VerifyBinary(payload, h.monitor); verr != nil {
		err = fmt.Errorf("decode %s payload: %w", h.typ, verr)
	} else {
		err = h.agree(recHeader{typ: KindSegment, monitor: h.monitor, first: first, last: last, count: uint32(n)})
	}
	if err != nil {
		return recHeader{}, nil, Record{}, fmt.Errorf("export: decode record: %w", err)
	}
	return h, payload, rec, nil
}

// checkFrame checks that b is exactly one framed record — a header, a
// payload of the length it states, and that payload's CRC — and
// returns the header, parsed in place (parseHeader: its raw bytes are
// b's prefix, its monitor name comes from names), and the payload, a
// sub-slice of b.
func checkFrame(b []byte, names *summaryBuilder) (recHeader, []byte, error) {
	h, err := parseHeader(b, names)
	if err != nil {
		return recHeader{}, nil, fmt.Errorf("export: decode record: truncated: %w", err)
	}
	rest := b[len(h.raw):]
	if uint64(len(rest)) < uint64(h.payloadLen) {
		return recHeader{}, nil, fmt.Errorf("export: decode record: truncated: %w", io.ErrUnexpectedEOF)
	}
	payload := rest[:h.payloadLen]
	if got := crc32.ChecksumIEEE(payload); got != h.sum {
		return recHeader{}, nil, fmt.Errorf("export: decode record: %w (got %08x, header says %08x)", errCRCMismatch, got, h.sum)
	}
	if extra := len(rest) - len(payload); extra > 0 {
		return recHeader{}, nil, fmt.Errorf("export: decode record: %d trailing bytes", extra)
	}
	return h, payload, nil
}

// deliver writes r through the sink method for its kind. stored is
// false when the sink lacks the optional extension for that kind (it
// cannot store such records) or r is the zero Record.
func (r Record) deliver(sink Sink) (stored bool, err error) {
	switch {
	case r.Segment != nil:
		return true, sink.WriteSegment(*r.Segment)
	case r.Marker != nil:
		if s, ok := sink.(MarkerSink); ok {
			return true, s.WriteMarker(*r.Marker)
		}
	case r.Health != nil:
		if s, ok := sink.(HealthSink); ok {
			return true, s.WriteHealth(*r.Health)
		}
	case r.Tombstone != nil:
		if s, ok := sink.(TombstoneSink); ok {
			return true, s.WriteTombstone(*r.Tombstone)
		}
	case r.Alert != nil:
		if s, ok := sink.(AlertSink); ok {
			return true, s.WriteAlert(*r.Alert)
		}
	}
	return false, nil
}

// Apply writes the record to sink, routing annotations through the
// sink's optional extensions. Unlike the exporter, which skips a kind
// its sink cannot store, Apply refuses it: Apply exists for rewriting
// a store (compaction), where a silent drop would lose a record the
// source holds.
func (r Record) Apply(sink Sink) error {
	h, ok := r.header()
	if !ok {
		return fmt.Errorf("export: apply record: empty record")
	}
	stored, err := r.deliver(sink)
	if !stored {
		return fmt.Errorf("export: sink %T cannot store %s records", sink, h.typ)
	}
	return err
}
