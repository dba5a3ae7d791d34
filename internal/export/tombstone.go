package export

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"robustmon/internal/event"
)

// Retention tombstones in the export stream. Horizon-based retention
// (internal/export/compact with a RetainSeq/RetainBefore floor) drops
// whole segment files from the cold backlog; the tombstone is the
// durable record of that deliberate truncation: which sequence horizon
// the store is complete above, and exactly what was dropped below it.
// It flows like any other record — persisted by sinks implementing
// TombstoneSink (WALSink as a typed WAL record, MemorySink in memory),
// carried by the index so windowed readers find it without
// opening files, and surfaced by ReadDir in Replay.Tombstones so a
// query below the horizon reports "truncated by retention" instead of
// silently returning less.

// TombstoneSink is the optional Sink extension for retention
// tombstones. A sink without it cannot replicate a retention-truncated
// store faithfully, so Record.Apply refuses rather than drops.
type TombstoneSink interface {
	// WriteTombstone persists one retention tombstone. Like
	// WriteSegment it is driven by a single goroutine.
	WriteTombstone(t Tombstone) error
}

// TruncatedRange is one monitor's share of a retention truncation: the
// sequence range and event count of that monitor's records dropped
// below the horizon.
type TruncatedRange struct {
	// Monitor names the monitor.
	Monitor string
	// MinSeq and MaxSeq bound the monitor's dropped sequence numbers
	// (inclusive).
	MinSeq, MaxSeq int64
	// Events counts the monitor's dropped events.
	Events int64
}

// Tombstone records one directory's cumulative retention truncation.
// Every retention pass folds the prior tombstone into the new one, so
// a directory carries a single live tombstone whose counters cover
// everything ever dropped.
type Tombstone struct {
	// Horizon is the retention horizon: every event with sequence
	// number >= Horizon is still present in the store; events below it
	// may have been dropped. A windowed query whose window starts below
	// Horizon is incomplete by design, not by damage.
	Horizon int64
	// Events, Records and Files count everything retention has dropped
	// from this store over its lifetime (cumulative across passes).
	Events  int64
	Records int64
	Files   int64
	// Monitors lists the per-monitor dropped ranges, sorted by monitor
	// name. Nil when nothing attributable per-monitor was dropped.
	Monitors []TruncatedRange
	// At is the instant of the most recent retention pass.
	At time.Time
}

// tombstoneVersion versions the tombstone payload blob.
const tombstoneVersion = 1

// maxTombstoneMonitors bounds the per-monitor table a decoder will
// accept — far above anything real, small enough that a lying length
// field cannot balloon the allocator.
const maxTombstoneMonitors = 1 << 16

// saturatingUint32 clamps a non-negative int64 into the record
// header's uint32 count field; the payload carries the exact value.
func saturatingUint32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// appendTombstone serialises a tombstone into the self-contained
// payload blob of a KindTombstone WAL record, appended to dst — the
// same shape as appendMarker: a version byte, varint fields, then the
// length-prefixed per-monitor table. Appending lets the WAL sink
// encode into its pooled payload buffers.
func appendTombstone(dst []byte, t Tombstone) []byte {
	dst = append(dst, tombstoneVersion)
	dst = binary.AppendVarint(dst, t.Horizon)
	dst = binary.AppendVarint(dst, t.Events)
	dst = binary.AppendVarint(dst, t.Records)
	dst = binary.AppendVarint(dst, t.Files)
	dst = binary.AppendVarint(dst, t.At.UnixNano())
	dst = binary.AppendUvarint(dst, uint64(len(t.Monitors)))
	for _, tr := range t.Monitors {
		dst = appendString(dst, tr.Monitor)
		dst = binary.AppendVarint(dst, tr.MinSeq)
		dst = binary.AppendVarint(dst, tr.MaxSeq)
		dst = binary.AppendVarint(dst, tr.Events)
	}
	return dst
}

// decodeTombstone reverses appendTombstone.
func decodeTombstone(payload []byte) (Tombstone, error) {
	br := bytes.NewReader(payload)
	var t Tombstone
	ver, err := br.ReadByte()
	if err != nil {
		return t, fmt.Errorf("tombstone version: %w", err)
	}
	if ver != tombstoneVersion {
		return t, fmt.Errorf("unknown tombstone version %d", ver)
	}
	if t.Horizon, err = event.ReadVarint(br); err != nil {
		return t, fmt.Errorf("tombstone horizon: %w", err)
	}
	if t.Events, err = event.ReadVarint(br); err != nil {
		return t, fmt.Errorf("tombstone events: %w", err)
	}
	if t.Records, err = event.ReadVarint(br); err != nil {
		return t, fmt.Errorf("tombstone records: %w", err)
	}
	if t.Files, err = event.ReadVarint(br); err != nil {
		return t, fmt.Errorf("tombstone files: %w", err)
	}
	nanos, err := event.ReadVarint(br)
	if err != nil {
		return t, fmt.Errorf("tombstone instant: %w", err)
	}
	t.At = time.Unix(0, nanos).UTC()
	nMons, err := event.ReadUvarint(br)
	if err != nil {
		return t, fmt.Errorf("tombstone monitor count: %w", err)
	}
	if nMons > maxTombstoneMonitors {
		return t, fmt.Errorf("implausible tombstone monitor count %d", nMons)
	}
	for i := uint64(0); i < nMons; i++ {
		var tr TruncatedRange
		if tr.Monitor, err = readString(br); err != nil {
			return t, fmt.Errorf("tombstone monitor %d: %w", i, err)
		}
		if tr.MinSeq, err = event.ReadVarint(br); err != nil {
			return t, fmt.Errorf("tombstone monitor %d minseq: %w", i, err)
		}
		if tr.MaxSeq, err = event.ReadVarint(br); err != nil {
			return t, fmt.Errorf("tombstone monitor %d maxseq: %w", i, err)
		}
		if tr.Events, err = event.ReadVarint(br); err != nil {
			return t, fmt.Errorf("tombstone monitor %d events: %w", i, err)
		}
		t.Monitors = append(t.Monitors, tr)
	}
	if br.Len() != 0 {
		return t, fmt.Errorf("%d trailing bytes after tombstone", br.Len())
	}
	return t, nil
}
