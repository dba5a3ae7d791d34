package export

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"robustmon/internal/event"
	obsrules "robustmon/internal/obs/rules"
)

// Threshold-alert records in the export stream. A detector running an
// obsrules.Engine over its health snapshots (detect.Config.Rules)
// persists every rule transition — fire or clear — as a typed WAL
// record right next to the health timeline that triggered it, and a
// fleet collector does the same for its fleet-level rules (per-origin
// staleness), stamping Alert.Origin. Sinks implementing AlertSink
// store them; ReadDir returns them in Replay.Alerts, so `montrace
// check`/`dump` show the pipeline's own degradation alongside the
// application faults it was recording at the time.

// AlertSink is the optional Sink extension for threshold-alert
// records. A sink without it simply drops them (the exporter counts
// them as accepted either way); both built-in sinks implement it.
type AlertSink interface {
	// WriteAlert persists one rule-transition alert. Like WriteSegment
	// it is driven by the exporter's single writer goroutine.
	WriteAlert(a obsrules.Alert) error
}

// alertVersion versions the alert payload blob.
const alertVersion = 1

// appendAlert serialises an alert into the self-contained payload blob
// of a KindAlert WAL record, appended to dst: a version byte, varint
// instant and horizon, the rule/metric/origin strings length-prefixed,
// the observed value and ceiling as IEEE-754 bit patterns, and the
// transition direction as one byte. Deterministic by construction, so
// identical alerts encode to identical bytes — the dedup identity
// (Record.Key) that lets replay collapse compaction overlap.
func appendAlert(dst []byte, a obsrules.Alert) []byte {
	dst = append(dst, alertVersion)
	dst = binary.AppendVarint(dst, a.At.UnixNano())
	dst = binary.AppendVarint(dst, a.Seq)
	dst = appendString(dst, a.Rule)
	dst = appendString(dst, a.Metric)
	dst = appendString(dst, a.Origin)
	dst = binary.AppendUvarint(dst, math.Float64bits(a.Value))
	dst = binary.AppendUvarint(dst, math.Float64bits(a.Ceiling))
	firing := byte(0)
	if a.Firing {
		firing = 1
	}
	dst = append(dst, firing)
	return dst
}

// decodeAlert reverses appendAlert.
func decodeAlert(payload []byte) (obsrules.Alert, error) {
	br := bytes.NewReader(payload)
	var a obsrules.Alert
	ver, err := br.ReadByte()
	if err != nil {
		return a, fmt.Errorf("alert version: %w", err)
	}
	if ver != alertVersion {
		return a, fmt.Errorf("unknown alert version %d", ver)
	}
	getFloat := func(what string) (float64, error) {
		bits, err := event.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("alert %s: %w", what, err)
		}
		return math.Float64frombits(bits), nil
	}
	nanos, err := event.ReadVarint(br)
	if err != nil {
		return a, fmt.Errorf("alert instant: %w", err)
	}
	a.At = time.Unix(0, nanos).UTC()
	if a.Seq, err = event.ReadVarint(br); err != nil {
		return a, fmt.Errorf("alert horizon: %w", err)
	}
	if a.Rule, err = readString(br); err != nil {
		return a, fmt.Errorf("alert rule: %w", err)
	}
	if a.Metric, err = readString(br); err != nil {
		return a, fmt.Errorf("alert metric: %w", err)
	}
	if a.Origin, err = readString(br); err != nil {
		return a, fmt.Errorf("alert origin: %w", err)
	}
	if a.Value, err = getFloat("value"); err != nil {
		return a, err
	}
	if a.Ceiling, err = getFloat("ceiling"); err != nil {
		return a, err
	}
	firing, err := br.ReadByte()
	if err != nil {
		return a, fmt.Errorf("alert direction: %w", err)
	}
	if firing > 1 {
		return a, fmt.Errorf("implausible alert direction byte %d", firing)
	}
	a.Firing = firing == 1
	if br.Len() != 0 {
		return a, fmt.Errorf("%d trailing bytes after alert", br.Len())
	}
	return a, nil
}
