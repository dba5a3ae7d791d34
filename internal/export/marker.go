package export

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/history"
)

// Recovery markers in the export stream. A shard-local online reset
// (detect.Detector.RequestReset) discards a monitor's buffered,
// never-checked events; the exported trace therefore has a gap for
// that monitor at or below the reset horizon. The marker is the
// durable record of that gap: it flows through the exporter like a
// segment, is persisted by sinks implementing MarkerSink (WALSink as a
// typed WAL record, MemorySink in memory), and comes back from ReadDir
// in Replay.Markers so offline tooling (cmd/montrace) can tell a
// reset artefact from a genuine fault.

// MarkerSink is the optional Sink extension for recovery markers. A
// sink without it simply drops markers (the exporter counts them as
// accepted either way); both built-in sinks implement it.
type MarkerSink interface {
	// WriteMarker persists one recovery marker. Like WriteSegment it is
	// driven by the exporter's single writer goroutine.
	WriteMarker(m history.RecoveryMarker) error
}

// markerVersion versions the marker payload blob.
const markerVersion = 1

// appendMarker serialises a marker into the self-contained payload
// blob of a KindMarker WAL record, appended to dst: a version byte
// followed by varint fields (horizon, dropped, pid, unix-nano instant)
// and the length-prefixed rule and monitor strings. Self-contained on
// purpose — a marker payload can be interpreted without its record
// header, mirroring how a segment payload is a well-formed trace on
// its own. Appending (rather than returning a fresh buffer) lets the
// WAL sink encode into its pooled payload buffers.
func appendMarker(dst []byte, m history.RecoveryMarker) []byte {
	dst = append(dst, markerVersion)
	dst = binary.AppendVarint(dst, m.Horizon)
	dst = binary.AppendUvarint(dst, uint64(m.Dropped))
	dst = binary.AppendVarint(dst, m.Pid)
	dst = binary.AppendVarint(dst, m.At.UnixNano())
	dst = appendString(dst, m.Rule)
	dst = appendString(dst, m.Monitor)
	return dst
}

// decodeMarker reverses appendMarker.
func decodeMarker(payload []byte) (history.RecoveryMarker, error) {
	br := bytes.NewReader(payload)
	var m history.RecoveryMarker
	ver, err := br.ReadByte()
	if err != nil {
		return m, fmt.Errorf("marker version: %w", err)
	}
	if ver != markerVersion {
		return m, fmt.Errorf("unknown marker version %d", ver)
	}
	if m.Horizon, err = event.ReadVarint(br); err != nil {
		return m, fmt.Errorf("marker horizon: %w", err)
	}
	dropped, err := event.ReadUvarint(br)
	if err != nil {
		return m, fmt.Errorf("marker dropped count: %w", err)
	}
	m.Dropped = int(dropped)
	if m.Pid, err = event.ReadVarint(br); err != nil {
		return m, fmt.Errorf("marker pid: %w", err)
	}
	nanos, err := event.ReadVarint(br)
	if err != nil {
		return m, fmt.Errorf("marker instant: %w", err)
	}
	m.At = time.Unix(0, nanos).UTC()
	if m.Rule, err = readString(br); err != nil {
		return m, fmt.Errorf("marker rule: %w", err)
	}
	if m.Monitor, err = readString(br); err != nil {
		return m, fmt.Errorf("marker monitor: %w", err)
	}
	if br.Len() != 0 {
		return m, fmt.Errorf("%d trailing bytes after marker", br.Len())
	}
	return m, nil
}
