package export

import (
	"errors"
	"sync"
	"sync/atomic"

	"robustmon/internal/event"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// Policy selects what Consume does when the exporter's buffer is full.
type Policy int

const (
	// Block stalls the caller until the writer frees a slot — lossless,
	// at the price of propagating sink latency back to the drainer.
	Block Policy = iota
	// Drop discards the segment and counts it — the drainer never
	// waits, at the price of gaps in the exported trace.
	Drop
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	default:
		return "Policy(?)"
	}
}

// Config parameterises an Exporter.
type Config struct {
	// Buffer is the capacity of the pending-segment channel (default
	// 64). Together with Policy it is the explicit backpressure knob:
	// the exporter never queues more than Buffer segments.
	Buffer int
	// Policy is the backpressure policy when the buffer is full
	// (default Block).
	Policy Policy
	// Obs, when set, instruments the exporter: accept/write/drop
	// counters mirroring Stats (drops split by reason — "full" vs
	// "closed") and the export_queue_depth gauge. The counters are
	// separate from the atomics that feed Stats but bumped at the same
	// call sites, so the two surfaces agree
	// (TestExporterDropAccountingMatchesMetrics checks it). Nil
	// disables at zero cost (see internal/obs).
	Obs *obs.Registry
}

// expMetrics are the exporter's obs handles; the zero value (all nil)
// is the disabled mode.
type expMetrics struct {
	segments, events, written          *obs.Counter
	accepted, stored                   [numKinds]*obs.Counter // per annotation kind
	droppedSegsFull, droppedSegsClosed *obs.Counter
	droppedEvsFull, droppedEvsClosed   *obs.Counter
	writeErrors                        *obs.Counter
	queueDepth                         *obs.Gauge
}

// numKinds sizes the exporter's per-kind annotation counters.
const numKinds = KindAlert + 1

// exportedKinds names the annotation kinds an exporter carries by their
// metric stem: export_<stem>_total counts accepted records,
// export_<stem>_written_total the ones the sink stored. Tombstones are
// written by compaction directly, never through an exporter.
var exportedKinds = map[Kind]string{KindMarker: "markers", KindHealth: "healths", KindAlert: "alerts"}

func newExpMetrics(reg *obs.Registry) expMetrics {
	if reg == nil {
		return expMetrics{}
	}
	m := expMetrics{
		segments:          reg.Counter("export_segments_total"),
		events:            reg.Counter("export_events_total"),
		written:           reg.Counter("export_written_total"),
		droppedSegsFull:   reg.Counter(`export_dropped_segments_total{reason="full"}`),
		droppedSegsClosed: reg.Counter(`export_dropped_segments_total{reason="closed"}`),
		droppedEvsFull:    reg.Counter(`export_dropped_events_total{reason="full"}`),
		droppedEvsClosed:  reg.Counter(`export_dropped_events_total{reason="closed"}`),
		writeErrors:       reg.Counter("export_write_errors_total"),
		queueDepth:        reg.Gauge("export_queue_depth"),
	}
	for k, stem := range exportedKinds {
		m.accepted[k] = reg.Counter("export_" + stem + "_total")
		m.stored[k] = reg.Counter("export_" + stem + "_written_total")
	}
	return m
}

// Stats counts exporter activity. Dropped counters stay zero under the
// Block policy.
type Stats struct {
	// Segments and Events were accepted into the buffer.
	Segments, Events int64
	// Written counts segments the sink persisted without error.
	Written int64
	// Markers counts recovery markers accepted; MarkersWritten those a
	// MarkerSink persisted without error (zero for a plain Sink).
	Markers, MarkersWritten int64
	// Healths counts health snapshots accepted; HealthsWritten those a
	// HealthSink persisted without error (zero for a plain Sink).
	Healths, HealthsWritten int64
	// Alerts counts threshold alerts accepted; AlertsWritten those an
	// AlertSink persisted without error (zero for a plain Sink).
	Alerts, AlertsWritten int64
	// DroppedSegments and DroppedEvents were discarded — the totals of
	// the by-reason split below.
	DroppedSegments, DroppedEvents int64
	// DroppedSegmentsFull/DroppedEventsFull were discarded because the
	// buffer was full under the Drop policy — the backpressure signal
	// an operator tunes Buffer against. DroppedSegmentsClosed/
	// DroppedEventsClosed arrived after Close — a shutdown-ordering
	// signal, not a capacity one.
	DroppedSegmentsFull, DroppedEventsFull     int64
	DroppedSegmentsClosed, DroppedEventsClosed int64
	// WriteErrors counts failed sink writes.
	WriteErrors int64
}

// ErrClosed reports an operation on a closed exporter.
var ErrClosed = errors.New("export: exporter closed")

// item is one unit of writer work: a segment, an annotation record, or
// a flush request.
type item struct {
	seg   Segment
	ann   *Record
	flush chan error
}

// Exporter streams drained history segments to a Sink off the hot
// path: Consume enqueues into a bounded channel, a single writer
// goroutine drains it. Construct with New; Consume, Flush and Close
// are safe for concurrent use.
type Exporter struct {
	cfg  Config
	sink Sink
	ch   chan item
	done chan struct{}

	// mu orders Consume/Flush sends (read side) against Close's channel
	// close (write side), so a send never races the close.
	mu     sync.RWMutex
	closed bool

	segments, events, written           atomic.Int64
	accepted, stored                    [numKinds]atomic.Int64 // per annotation kind
	droppedSegsFull, droppedEvsFull     atomic.Int64
	droppedSegsClosed, droppedEvsClosed atomic.Int64
	writeErrors                         atomic.Int64
	met                                 expMetrics
	errMu                               sync.Mutex
	lastErr, closeErr                   error
}

// New starts an exporter writing to sink. Close it to stop the writer
// and close the sink.
func New(sink Sink, cfg Config) *Exporter {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	e := &Exporter{
		cfg:  cfg,
		sink: sink,
		ch:   make(chan item, cfg.Buffer),
		done: make(chan struct{}),
		met:  newExpMetrics(cfg.Obs),
	}
	go e.writer()
	return e
}

// writer is the single consumer of e.ch; it owns the sink.
func (e *Exporter) writer() {
	defer close(e.done)
	for it := range e.ch {
		// Depth after dequeue: what is still waiting. Drain-rhythm, not
		// event-rhythm, so the gauge write is cheap; a scrape between
		// updates sees the last drained depth, which is the queue's
		// steady-state signal.
		e.met.queueDepth.Set(int64(len(e.ch)))
		if it.flush != nil {
			it.flush <- e.sink.Flush()
			continue
		}
		if it.ann != nil {
			// A sink without the kind's extension cannot store it:
			// nothing to persist, and nothing counted as written.
			stored, err := it.ann.deliver(e.sink)
			if err != nil {
				e.writeFailed(err)
			} else if stored {
				k := it.ann.Info().Kind
				e.stored[k].Add(1)
				e.met.stored[k].Inc()
			}
			continue
		}
		err := e.sink.WriteSegment(it.seg)
		// The sink is done with the segment once WriteSegment returns
		// (sinks that keep a segment copy it), and Consume made the
		// exporter its owner: its slab goes back to history's pool.
		history.Recycle(it.seg.Events)
		if err != nil {
			e.writeFailed(err)
			continue
		}
		e.written.Add(1)
		e.met.written.Inc()
	}
	e.errMu.Lock()
	e.closeErr = e.sink.Close()
	e.errMu.Unlock()
}

func (e *Exporter) setErr(err error) {
	e.errMu.Lock()
	e.lastErr = err
	e.errMu.Unlock()
}

// writeFailed accounts one failed sink write.
func (e *Exporter) writeFailed(err error) {
	e.writeErrors.Add(1)
	e.met.writeErrors.Inc()
	e.setErr(err)
}

// Consume accepts one drained per-monitor segment and takes ownership
// of it: the exporter keeps the slice until its writer has handed it
// to the sink, then returns the slab to history's segment pool
// (history.Recycle) — as it does at once for a segment it drops. The
// caller must not read or mutate events after Consume returns; a
// caller that still needs them passes a copy. A detector hands each
// segment over after replaying it (detect.Config.Exporter); a tool
// draining a database itself hands over what it drained. Empty
// segments are ignored; a segment arriving after Close is counted as
// dropped.
func (e *Exporter) Consume(monitor string, events event.Seq) {
	if len(events) == 0 {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.dropClosed(events)
		return
	}
	it := item{seg: Segment{Monitor: monitor, Events: events}}
	if e.cfg.Policy == Drop {
		select {
		case e.ch <- it:
		default:
			e.dropFull(events)
			return
		}
	} else {
		e.ch <- it
	}
	e.segments.Add(1)
	e.events.Add(int64(len(events)))
	e.met.segments.Inc()
	e.met.events.Add(int64(len(events)))
	e.met.queueDepth.Set(int64(len(e.ch)))
}

// ConsumeMarker accepts one recovery marker, so a detector's
// shard-local resets reach the sink through the same pipeline as
// their segments (see consumeAnnotation).
func (e *Exporter) ConsumeMarker(m history.RecoveryMarker) {
	e.consumeAnnotation(&Record{Marker: &m})
}

// ConsumeHealth accepts one health snapshot (see consumeAnnotation).
func (e *Exporter) ConsumeHealth(h obs.HealthRecord) {
	e.consumeAnnotation(&Record{Health: &h})
}

// ConsumeAlert accepts one threshold alert (see consumeAnnotation).
func (e *Exporter) ConsumeAlert(a obsrules.Alert) {
	e.consumeAnnotation(&Record{Alert: &a})
}

// consumeAnnotation enqueues one annotation record. Annotations are
// rare, small and load-bearing — a dropped marker would make a
// deliberate trace gap look like corruption, and a gap in the health
// or alert timeline is a diagnostic loss exactly when the system is
// under the pressure the timeline exists to explain — so the send
// always blocks for a free slot, even under the Drop policy, exactly
// like Flush. An annotation arriving after Close is discarded.
func (e *Exporter) consumeAnnotation(r *Record) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return
	}
	e.ch <- item{ann: r}
	k := r.Info().Kind
	e.accepted[k].Add(1)
	e.met.accepted[k].Inc()
}

// dropFull counts and recycles a segment discarded because the
// buffer was full under the Drop policy.
func (e *Exporter) dropFull(events event.Seq) {
	e.droppedSegsFull.Add(1)
	e.droppedEvsFull.Add(int64(len(events)))
	e.met.droppedSegsFull.Inc()
	e.met.droppedEvsFull.Add(int64(len(events)))
	history.Recycle(events)
}

// dropClosed counts and recycles a segment discarded because it
// arrived after Close.
func (e *Exporter) dropClosed(events event.Seq) {
	e.droppedSegsClosed.Add(1)
	e.droppedEvsClosed.Add(int64(len(events)))
	e.met.droppedSegsClosed.Inc()
	e.met.droppedEvsClosed.Add(int64(len(events)))
	history.Recycle(events)
}

// Flush blocks until every segment accepted before the call has been
// handed to the sink and the sink's own buffers are forced down, then
// reports the sink's flush error, or else the most recent write error
// (sticky: a failed export keeps reporting from Flush and Close until
// the exporter is rebuilt, so no caller path can lose it). A flush
// request is never dropped, even under the Drop policy.
func (e *Exporter) Flush() error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		if err := e.lastError(); err != nil {
			return err
		}
		return ErrClosed
	}
	reply := make(chan error, 1)
	e.ch <- item{flush: reply}
	e.mu.RUnlock()
	if err := <-reply; err != nil {
		e.setErr(err)
		return err
	}
	return e.lastError()
}

func (e *Exporter) lastError() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.lastErr
}

// Close drains the buffer, closes the sink and stops the writer. It
// is idempotent and reports the sticky write error (else the sink's
// close error). Segments consumed after Close are dropped, not
// written.
func (e *Exporter) Close() error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.ch)
	}
	e.mu.Unlock()
	<-e.done
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if e.lastErr != nil {
		return e.lastErr
	}
	return e.closeErr
}

// Stats returns a snapshot of the exporter's counters.
func (e *Exporter) Stats() Stats {
	dsf, dsc := e.droppedSegsFull.Load(), e.droppedSegsClosed.Load()
	def, dec := e.droppedEvsFull.Load(), e.droppedEvsClosed.Load()
	return Stats{
		Segments:              e.segments.Load(),
		Events:                e.events.Load(),
		Written:               e.written.Load(),
		Markers:               e.accepted[KindMarker].Load(),
		MarkersWritten:        e.stored[KindMarker].Load(),
		Healths:               e.accepted[KindHealth].Load(),
		HealthsWritten:        e.stored[KindHealth].Load(),
		Alerts:                e.accepted[KindAlert].Load(),
		AlertsWritten:         e.stored[KindAlert].Load(),
		DroppedSegments:       dsf + dsc,
		DroppedEvents:         def + dec,
		DroppedSegmentsFull:   dsf,
		DroppedEventsFull:     def,
		DroppedSegmentsClosed: dsc,
		DroppedEventsClosed:   dec,
		WriteErrors:           e.writeErrors.Load(),
	}
}
