// Package export is the asynchronous trace-export pipeline: it moves
// trace persistence off the instrumented hot path, replacing the
// memory-unbounded history.WithFullTrace strategy with a bounded
// streaming one.
//
// The paper (§3.3) prunes a drained history segment as soon as the
// checking routine has replayed it; everything offline tooling wants —
// export, re-checking, the FD-rule ablation — therefore used to demand
// WithFullTrace, which keeps the whole run in memory and merges it
// under every shard lock on each Full() call. This package instead
// consumes the segments the checkpoints drain anyway and streams them
// to a pluggable Sink on a dedicated writer goroutine, following the
// detectEr line of work (Cassar & Francalanza): asynchronous trace
// consumption is where the monitoring-overhead win lives.
//
// # Pipeline
//
//	monitors → history.DB ──drain──▶ checking routine (replay)
//	              ▲                        │ Consume
//	              │                        ▼
//	              │                     Exporter ──chan──▶ writer ──▶ Sink
//	              │                                          │
//	              └────────── history.Recycle ◀──────────────┘
//
// Each drained segment has one owner at a time. The checking routine
// replays it and hands it to the Exporter (detect.Config.Exporter,
// which also flushes on shutdown); Exporter.Consume takes ownership,
// queues the segment on a bounded channel with an explicit
// backpressure policy — Block stalls the checkpoint (lossless), Drop
// discards the segment and counts it — and a single writer goroutine
// forwards it to the Sink. Once the sink's WriteSegment returns (or
// the segment is dropped) the exporter returns its slab to history's
// segment pool, so the next checkpoint's shard reuses it instead of
// regrowing one. A sink therefore reads a segment only during
// WriteSegment and copies whatever it keeps (MemorySink does).
//
// WALSink persists to numbered files of typed, CRC-protected records —
// segments (per-record monitor id, seq range, count) and annotations:
// recovery markers (a shard-local online reset and the deliberate gap
// it leaves in the monitor's trace), health snapshots, retention
// tombstones and threshold alerts — fsyncing on rotation, which is
// size-based (MaxFileBytes) and optionally age-based (RotateEvery).
// ReadDir replays a directory into a Replay: the record payloads
// k-way-merged (event.Merge) back into the global <L order in
// Replay.Events, the annotations in its typed slices, and
// crash-truncated-tail recovery reported via Replay.Recovered — a
// torn record is tolerated only at the tail of the newest file, where
// it is the expected signature of a crash mid-append; anywhere else it
// is corruption and an error. A CRC-corrupt full-length record is
// damage to that record alone: it is skipped and counted
// (Replay.CorruptRecords) and reading continues. Batched checkpoints
// (history.DB.DrainMonitorUpTo) change only how many records frame a
// checkpoint's events, never which events are exported nor their
// order: for a lossless (Block-policy) run Replay.Events is
// byte-identical to what event.WriteBinary of a WithFullTrace run's
// Full() produces.
//
// # Record path
//
// Between the WAL bytes and Replay every record travels in one decoded
// form, Record: the reader decodes into it, Record.header derives the
// header fields both writers frame it with and the reader checks it
// against, Record.Key is the one dedup identity, ReadRecordAt the one
// point read, FileSummary.Annotations the one index table, and
// Record.Apply the one route into a sink, which compaction takes. The
// fleet collector stores a record it receives without decoding it:
// WALSink.WriteEncoded applies DecodeRecord's checks to the frame,
// checking a segment's payload in place (event.VerifyBinary), and
// writes the received bytes unchanged. Typed seams remain only at the
// edges, where callers handle concrete types: the detector's
// TraceExporter (Consume*), the sinks' optional Write* extensions, and
// Replay's typed slices.
//
// # Trace store
//
// Two subpackages make the on-disk artefact cheap to consume and keep
// it bounded (see DESIGN.md §5). index maintains a sparse per-file
// index — WALConfig.OnSeal hands each sealed file's FileSummary
// (seq ranges, monitor set, annotation offsets, header-chain CRC; also
// rebuildable via ScanFile) to an index.Maintainer — and answers
// windowed queries (index.SeekReader.ReplayRange) by opening only the
// files the index admits. compact merges the rotated backlog into
// dense per-monitor segments, replay-identical to the original;
// WALConfig.CompactEvery/Compact let the WALSink launch it in the
// background each time its sealed backlog grows past a threshold, so
// long-running detectors bound their own footprint.
package export

import (
	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// Segment is one drained per-monitor history segment: the unit the
// checkpoints hand to the exporter and the unit the WAL persists as a
// record. Events are seq-sorted (history shards claim global sequence
// numbers under the shard lock) and belong to a single monitor.
type Segment struct {
	// Monitor names the monitor whose shard the segment was drained
	// from.
	Monitor string
	// Events is the drained slice. It belongs to the exporter, which
	// recycles it once the sink's WriteSegment returns: a sink reads it
	// during the call, never mutates it, and copies what it keeps.
	Events event.Seq
}

// First returns the lowest sequence number in the segment (0 when
// empty).
func (s Segment) First() int64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[0].Seq
}

// Last returns the highest sequence number in the segment (0 when
// empty).
func (s Segment) Last() int64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].Seq
}

// Sink persists exported segments. Implementations are driven by the
// exporter's single writer goroutine, so they need not be safe for
// concurrent use.
type Sink interface {
	// WriteSegment persists one drained segment. seg.Events is valid
	// only until the call returns (see Segment.Events).
	WriteSegment(seg Segment) error
	// Flush forces buffered data to stable storage.
	Flush() error
	// Close flushes and releases the sink. No calls follow Close.
	Close() error
}

// MemorySink collects segments (and recovery markers and health
// snapshots) in memory — the test double and the cheapest way to tail
// a database programmatically.
type MemorySink struct {
	segments []Segment
	markers  []history.RecoveryMarker
	healths  []obs.HealthRecord
	tombs    []Tombstone
	alerts   []obsrules.Alert
}

// WriteSegment appends a copy of the segment: MemorySink is the one
// sink that keeps segments, and the exporter recycles the original's
// slab once this call returns.
func (m *MemorySink) WriteSegment(seg Segment) error {
	seg.Events = append(event.Seq(nil), seg.Events...)
	m.segments = append(m.segments, seg)
	return nil
}

// WriteMarker appends the recovery marker (the MarkerSink extension).
func (m *MemorySink) WriteMarker(mk history.RecoveryMarker) error {
	m.markers = append(m.markers, mk)
	return nil
}

// Markers returns the collected recovery markers in arrival order.
func (m *MemorySink) Markers() []history.RecoveryMarker { return m.markers }

// WriteHealth appends the health snapshot (the HealthSink extension).
func (m *MemorySink) WriteHealth(h obs.HealthRecord) error {
	m.healths = append(m.healths, h)
	return nil
}

// Healths returns the collected health snapshots in arrival order.
func (m *MemorySink) Healths() []obs.HealthRecord { return m.healths }

// WriteTombstone appends the retention tombstone (the TombstoneSink
// extension).
func (m *MemorySink) WriteTombstone(t Tombstone) error {
	m.tombs = append(m.tombs, t)
	return nil
}

// Tombstones returns the collected retention tombstones in arrival
// order.
func (m *MemorySink) Tombstones() []Tombstone { return m.tombs }

// WriteAlert appends the threshold alert (the AlertSink extension).
func (m *MemorySink) WriteAlert(a obsrules.Alert) error {
	m.alerts = append(m.alerts, a)
	return nil
}

// Alerts returns the collected threshold alerts in arrival order.
func (m *MemorySink) Alerts() []obsrules.Alert { return m.alerts }

// Flush is a no-op.
func (m *MemorySink) Flush() error { return nil }

// Close is a no-op.
func (m *MemorySink) Close() error { return nil }

// Segments returns the collected segments in arrival order.
func (m *MemorySink) Segments() []Segment { return m.segments }

// Events merges every collected segment into the global <L order.
func (m *MemorySink) Events() event.Seq {
	seqs := make([]event.Seq, 0, len(m.segments))
	for _, s := range m.segments {
		seqs = append(seqs, s.Events)
	}
	return event.Merge(seqs...)
}
