package export

import (
	"errors"

	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// TeeSink fans every record out to several sinks — e.g. a local
// WALSink for durability plus a network shipper for fleet collection.
// Each call is delivered to every sink regardless of individual
// failures; the errors are joined. Markers, health snapshots and alerts
// are delivered only to the sinks that implement the matching optional
// extension (TeeSink itself advertises all three, so an exporter
// routes them here and the tee dispatches to whoever can store them).
// Like the sinks it wraps, a TeeSink is driven by one goroutine.
type TeeSink struct {
	sinks []Sink
}

// NewTeeSink builds a tee over the given sinks; nil entries are
// dropped.
func NewTeeSink(sinks ...Sink) *TeeSink {
	t := &TeeSink{sinks: make([]Sink, 0, len(sinks))}
	for _, s := range sinks {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
	return t
}

// WriteSegment delivers the segment to every sink.
func (t *TeeSink) WriteSegment(seg Segment) error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.WriteSegment(seg); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// WriteMarker delivers the marker to every sink implementing
// MarkerSink.
func (t *TeeSink) WriteMarker(m history.RecoveryMarker) error {
	return t.writeAnnotation(Record{Marker: &m})
}

// WriteHealth delivers the snapshot to every sink implementing
// HealthSink.
func (t *TeeSink) WriteHealth(h obs.HealthRecord) error {
	return t.writeAnnotation(Record{Health: &h})
}

// WriteAlert delivers the threshold alert to every sink implementing
// AlertSink.
func (t *TeeSink) WriteAlert(a obsrules.Alert) error {
	return t.writeAnnotation(Record{Alert: &a})
}

// writeAnnotation delivers r to every sink that can store its kind.
func (t *TeeSink) writeAnnotation(r Record) error {
	var errs []error
	for _, s := range t.sinks {
		if _, err := r.deliver(s); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Flush flushes every sink.
func (t *TeeSink) Flush() error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close closes every sink.
func (t *TeeSink) Close() error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
