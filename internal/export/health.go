package export

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/obs"
)

// Health-snapshot records in the export stream. A detector configured
// with a health cadence (detect.Config.HealthEvery) periodically
// captures its obs metrics registry as an obs.HealthRecord and sends
// it through the exporter like a recovery marker; sinks implementing
// HealthSink persist it (WALSink as a typed WAL record, MemorySink in
// memory) and ReadDir returns them in Replay.Healths, so any export
// directory carries its own health timeline — `montrace stats`
// renders it, windowed through the trace-store index.

// HealthSink is the optional Sink extension for health-snapshot
// records. A sink without it simply drops them (the exporter counts
// them as accepted either way); both built-in sinks implement it.
type HealthSink interface {
	// WriteHealth persists one health snapshot. Like WriteSegment it is
	// driven by the exporter's single writer goroutine.
	WriteHealth(h obs.HealthRecord) error
}

// healthVersion versions the health payload blob.
const healthVersion = 1

// Decode guards: a corrupted length field must not balloon the
// reader. Metric names share the monitor-name bound; a snapshot
// plausibly holds at most a few hundred metrics.
const (
	maxHealthMetrics = 1 << 16
	maxHealthBuckets = 65
)

// appendHealth serialises a health record into the self-contained
// payload blob of a KindHealth WAL record, appended to dst: a version
// byte, varint instant and horizon, then the snapshot's three
// sections, each length-prefixed. Deterministic by construction —
// obs.Snapshot sections are name-sorted — so identical snapshots
// encode to identical bytes, which is what lets replay deduplicate
// compaction overlap (Record.Key) and lets the byte-identical-replay
// invariant extend to health records. Appending (rather than returning
// a fresh buffer) lets the WAL sink encode into its pooled payload
// buffers.
func appendHealth(dst []byte, h obs.HealthRecord) []byte {
	putMetrics := func(ms []obs.Metric) {
		dst = binary.AppendUvarint(dst, uint64(len(ms)))
		for _, m := range ms {
			dst = appendString(dst, m.Name)
			dst = binary.AppendVarint(dst, m.Value)
		}
	}
	dst = append(dst, healthVersion)
	dst = binary.AppendVarint(dst, h.At.UnixNano())
	dst = binary.AppendVarint(dst, h.Seq)
	putMetrics(h.Metrics.Counters)
	putMetrics(h.Metrics.Gauges)
	dst = binary.AppendUvarint(dst, uint64(len(h.Metrics.Histograms)))
	for _, hs := range h.Metrics.Histograms {
		dst = appendString(dst, hs.Name)
		dst = binary.AppendVarint(dst, hs.Count)
		dst = binary.AppendVarint(dst, hs.Sum)
		dst = binary.AppendUvarint(dst, uint64(len(hs.Buckets)))
		for _, b := range hs.Buckets {
			dst = binary.AppendUvarint(dst, uint64(b.Index))
			dst = binary.AppendVarint(dst, b.Count)
		}
	}
	return dst
}

// decodeHealth reverses appendHealth.
func decodeHealth(payload []byte) (obs.HealthRecord, error) {
	br := bytes.NewReader(payload)
	var h obs.HealthRecord
	ver, err := br.ReadByte()
	if err != nil {
		return h, fmt.Errorf("health version: %w", err)
	}
	if ver != healthVersion {
		return h, fmt.Errorf("unknown health version %d", ver)
	}
	getLen := func(what string, bound uint64) (int, error) {
		n, err := event.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("health %s count: %w", what, err)
		}
		if n > bound {
			return 0, fmt.Errorf("implausible health %s count %d", what, n)
		}
		return int(n), nil
	}
	getMetrics := func(what string) ([]obs.Metric, error) {
		n, err := getLen(what, maxHealthMetrics)
		if err != nil || n == 0 {
			return nil, err
		}
		ms := make([]obs.Metric, n)
		for i := range ms {
			if ms[i].Name, err = readString(br); err != nil {
				return nil, fmt.Errorf("health %s name: %w", what, err)
			}
			if ms[i].Value, err = event.ReadVarint(br); err != nil {
				return nil, fmt.Errorf("health %s value: %w", what, err)
			}
		}
		return ms, nil
	}
	nanos, err := event.ReadVarint(br)
	if err != nil {
		return h, fmt.Errorf("health instant: %w", err)
	}
	h.At = time.Unix(0, nanos).UTC()
	if h.Seq, err = event.ReadVarint(br); err != nil {
		return h, fmt.Errorf("health horizon: %w", err)
	}
	if h.Metrics.Counters, err = getMetrics("counter"); err != nil {
		return h, err
	}
	if h.Metrics.Gauges, err = getMetrics("gauge"); err != nil {
		return h, err
	}
	nh, err := getLen("histogram", maxHealthMetrics)
	if err != nil {
		return h, err
	}
	for i := 0; i < nh; i++ {
		var hs obs.HistogramSnapshot
		if hs.Name, err = readString(br); err != nil {
			return h, fmt.Errorf("health histogram name: %w", err)
		}
		if hs.Count, err = event.ReadVarint(br); err != nil {
			return h, fmt.Errorf("health histogram count: %w", err)
		}
		if hs.Sum, err = event.ReadVarint(br); err != nil {
			return h, fmt.Errorf("health histogram sum: %w", err)
		}
		nb, err := getLen("bucket", maxHealthBuckets)
		if err != nil {
			return h, err
		}
		for j := 0; j < nb; j++ {
			idx, err := event.ReadUvarint(br)
			if err != nil {
				return h, fmt.Errorf("health bucket index: %w", err)
			}
			if idx >= maxHealthBuckets {
				return h, fmt.Errorf("implausible health bucket index %d", idx)
			}
			cnt, err := event.ReadVarint(br)
			if err != nil {
				return h, fmt.Errorf("health bucket count: %w", err)
			}
			hs.Buckets = append(hs.Buckets, obs.Bucket{Index: int(idx), Count: cnt})
		}
		h.Metrics.Histograms = append(h.Metrics.Histograms, hs)
	}
	if br.Len() != 0 {
		return h, fmt.Errorf("%d trailing bytes after health snapshot", br.Len())
	}
	return h, nil
}
