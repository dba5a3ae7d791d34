package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/export"
	netexport "robustmon/internal/export/net"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// The traced pass wraps each layer's public entry points in the
// benchmark's own code — the program itself is not instrumented — and
// follows one event in sampleEvery, chosen by sequence number, through
// every stage between the monitor call that recorded it and the moment
// it was durable:
//
//	record ─► drain (checkpoint hands the segment to the exporter)
//	       ─► write (the exporter's writer hands it to the sink)
//	       ─► durable (fsync by seal or flush; collector ack on the fleet path)
//
// Each stage boundary is a timestamp on the followed event, so the
// stages telescope: their means add up to the record-to-durable mean.

const (
	// sampleEvery picks the followed events (seq % sampleEvery == 0): one
	// in 64 keeps the shared trace lock off most appends while still
	// following thousands of events per second.
	sampleEvery = 64
	// maxSpans bounds the spans kept for the span file, so a long run
	// does not grow the benchmark's memory; later spans are counted as
	// dropped.
	maxSpans = 100_000
	// ackPollEvery is how often the fleet path polls the network sink's
	// acknowledged-record count to timestamp durability.
	ackPollEvery = 200 * time.Microsecond
)

// Pipeline stages of a followed event, in order.
const (
	stRecordToDrain = iota
	stDrainToWrite
	stWrite
	stWriteToDurable
	stRecordToDurable
	numStages
)

var stageNames = [numStages]string{
	"pipeline.record_to_drain_ms",
	"pipeline.drain_to_write_ms",
	"pipeline.write_ms",
	"pipeline.write_to_durable_ms",
	"pipeline.record_to_durable_ms",
}

// span is one timed call at a layer boundary. Trace is the followed
// event's seq (0 for spans not tied to one event); Parent indexes the
// span that led to this one (-1 for none). Times are nanoseconds since
// the tracer started.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace,omitempty"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// followed is the stage timeline of one sampled event (ns since the
// tracer started; 0 = not reached yet).
type followed struct {
	rec, drain, wstart, wend int64
	ship                     int64 // network path: ship sequence of its record
	span                     int32 // latest span, parent of the next
}

// tracer collects the measurements of one traced pass. All fields
// behind mu are shared by the lanes, the detector and the exporter's
// writer goroutine.
type tracer struct {
	start time.Time

	mu sync.Mutex

	appendNs                       *hist
	checkNs, checkEvents           *hist
	checks, replayed               int64
	checkBusy, detectWall          time.Duration
	consumeNs, queueNs, writeNs    *hist
	records                        int64
	consumedAt                     map[int64]int64 // segment first seq → enqueue time
	rtNs, rtViolNs                 *hist
	openNs, replayNs               *hist
	queries, filesOpened, queryEvs int64

	inflight  map[int64]*followed
	written   map[int64]*followed // written, not yet durable
	stages    [numStages]*hist
	stageSums [numStages]int64
	complete  int64
	sealed    bool // a WAL seal happened during the current write

	spans   []span
	dropped int64
}

func newTracer() *tracer {
	tr := &tracer{
		start:       time.Now(),
		appendNs:    new(hist),
		checkNs:     new(hist),
		checkEvents: new(hist),
		consumeNs:   new(hist),
		queueNs:     new(hist),
		writeNs:     new(hist),
		rtNs:        new(hist),
		rtViolNs:    new(hist),
		openNs:      new(hist),
		replayNs:    new(hist),
		consumedAt:  make(map[int64]int64),
		inflight:    make(map[int64]*followed),
		written:     make(map[int64]*followed),
		spans:       make([]span, 0, maxSpans),
	}
	for i := range tr.stages {
		tr.stages[i] = new(hist)
	}
	return tr
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.start)) }

// addSpanLocked records a span and returns its index (-1 when the span
// buffer is full). Caller holds mu.
func (tr *tracer) addSpanLocked(name string, trace int64, parent int32, start, end int64) int32 {
	if len(tr.spans) == cap(tr.spans) {
		tr.dropped++
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Trace: trace, Parent: parent, Start: start, End: end})
	return int32(len(tr.spans) - 1)
}

// tracedRecorder wraps the history database (monitor.Recorder): the
// history layer's entry point.
type tracedRecorder struct {
	next monitor.Recorder
	tr   *tracer
}

func (r *tracedRecorder) Append(e event.Event) event.Event {
	t0 := time.Now()
	s := r.next.Append(e)
	if s.Seq%sampleEvery != 0 {
		return s
	}
	t1 := time.Now()
	tr := r.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.appendNs.add(int64(t1.Sub(t0)))
	f := &followed{rec: tr.since(t1)}
	f.span = tr.addSpanLocked("history.append", s.Seq, -1, tr.since(t0), f.rec)
	tr.inflight[s.Seq] = f
	return s
}

// tracedRealTime wraps the realtime calling-order checker. reports is
// the count of realtime violations the workload's callback has seen, so
// an append that raised one is timed separately.
type tracedRealTime struct {
	next    *detect.RealTime
	tr      *tracer
	reports *atomic.Int64
}

func (r *tracedRealTime) Append(e event.Event) event.Event {
	before := r.reports.Load()
	t0 := time.Now()
	s := r.next.Append(e)
	d := int64(time.Since(t0))
	r.tr.mu.Lock()
	if r.reports.Load() != before {
		r.tr.rtViolNs.add(d)
	} else {
		r.tr.rtNs.add(d)
	}
	r.tr.mu.Unlock()
	return s
}

// tracedExporter wraps the detector's view of the export pipeline
// (detect.TraceExporter). Consume is the drain tee: the moment a
// checkpoint hands a segment over.
type tracedExporter struct {
	next detect.TraceExporter
	tr   *tracer
}

func (x *tracedExporter) Consume(mon string, seg event.Seq) {
	t0 := time.Now()
	tr := x.tr
	tr.mu.Lock()
	at := tr.since(t0)
	if len(seg) > 0 {
		tr.consumedAt[seg[0].Seq] = at
	}
	for _, e := range seg {
		if e.Seq%sampleEvery != 0 {
			continue
		}
		if f := tr.inflight[e.Seq]; f != nil {
			f.drain = at
		}
	}
	tr.mu.Unlock()
	x.next.Consume(mon, seg)
	t1 := time.Now()
	tr.mu.Lock()
	tr.consumeNs.add(int64(t1.Sub(t0)))
	tr.mu.Unlock()
}

func (x *tracedExporter) ConsumeMarker(m history.RecoveryMarker) { x.next.ConsumeMarker(m) }
func (x *tracedExporter) ConsumeHealth(h obs.HealthRecord)       { x.next.ConsumeHealth(h) }
func (x *tracedExporter) ConsumeAlert(a obsrules.Alert)          { x.next.ConsumeAlert(a) }
func (x *tracedExporter) Flush() error                           { return x.next.Flush() }

// tracedSink wraps the exporter's sink. All calls arrive on the
// exporter's writer goroutine. For a local WAL, durability is the next
// seal or flush; for a network sink (shipped), it is the collector's
// acknowledgement, polled by pollAcks.
type tracedSink struct {
	next    export.Sink
	tr      *tracer
	shipped bool
	// ship counts records handed to the network sink, which numbers
	// them the same way.
	ship int64
}

func (s *tracedSink) WriteSegment(seg export.Segment) error {
	tr := s.tr
	t0 := time.Now()
	tr.mu.Lock()
	tr.sealed = false
	tr.mu.Unlock()
	err := s.next.WriteSegment(seg)
	t1 := time.Now()
	if err == nil && len(seg.Events) > 0 {
		s.ship++
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	start, end := tr.since(t0), tr.since(t1)
	tr.writeNs.add(end - start)
	tr.records++
	if len(seg.Events) > 0 {
		first := seg.Events[0].Seq
		if at, ok := tr.consumedAt[first]; ok {
			tr.queueNs.add(start - at)
			delete(tr.consumedAt, first)
		}
	}
	for _, e := range seg.Events {
		if e.Seq%sampleEvery != 0 {
			continue
		}
		f := tr.inflight[e.Seq]
		if f == nil || f.drain == 0 {
			continue
		}
		f.wstart, f.wend, f.ship = start, end, s.ship
		f.span = tr.addSpanLocked("export.write", e.Seq, f.span, start, end)
		if tr.sealed {
			// The write itself rotated the file: the fsync of the seal is
			// part of this call, so the event is durable when it returns.
			tr.durableLocked(e.Seq, f, end)
		} else {
			tr.written[e.Seq] = f
		}
	}
	return err
}

func (s *tracedSink) WriteHealth(h obs.HealthRecord) error {
	hs, ok := s.next.(export.HealthSink)
	if !ok {
		return nil
	}
	err := hs.WriteHealth(h)
	if err == nil {
		s.ship++
	}
	return err
}

func (s *tracedSink) WriteAlert(a obsrules.Alert) error {
	as, ok := s.next.(export.AlertSink)
	if !ok {
		return nil
	}
	err := as.WriteAlert(a)
	if err == nil {
		s.ship++
	}
	return err
}

func (s *tracedSink) Flush() error {
	err := s.next.Flush()
	if !s.shipped && err == nil {
		s.tr.allDurable(time.Now())
	}
	return err
}

func (s *tracedSink) Close() error {
	err := s.next.Close()
	if !s.shipped && err == nil {
		s.tr.allDurable(time.Now())
	}
	return err
}

// OnSeal makes the tracer a WAL seal consumer: a sealed file is flushed,
// fsynced and closed, so everything written before it is durable.
func (tr *tracer) OnSeal(export.FileSummary) error {
	now := time.Now()
	tr.mu.Lock()
	tr.sealed = true
	tr.mu.Unlock()
	tr.allDurable(now)
	return nil
}

func (tr *tracer) allDurable(t time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	at := tr.since(t)
	for seq, f := range tr.written {
		tr.durableLocked(seq, f, at)
	}
}

// pollAcks timestamps durability on the fleet path: every poll, the
// records the collector has acknowledged are durable. It returns when
// ctx is cancelled.
func (tr *tracer) pollAcks(ctx context.Context, ns *netexport.NetSink) {
	tick := time.NewTicker(ackPollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			tr.markAcked(ns)
		}
	}
}

// markAcked closes the timelines of the followed events whose records
// the collector has acknowledged. The sink numbers records from 1 and
// trims its buffer in order, so the acknowledged count is also the
// highest acknowledged ship sequence.
func (tr *tracer) markAcked(ns *netexport.NetSink) {
	acked := ns.Stats().Acked
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	at := tr.since(now)
	for seq, f := range tr.written {
		if f.ship <= acked {
			tr.durableLocked(seq, f, at)
		}
	}
}

// durableLocked closes a followed event's timeline. Caller holds mu.
func (tr *tracer) durableLocked(seq int64, f *followed, at int64) {
	d := [numStages]int64{
		f.drain - f.rec,
		f.wstart - f.drain,
		f.wend - f.wstart,
		at - f.wend,
		at - f.rec,
	}
	for i, v := range d {
		tr.stages[i].add(v)
		tr.stageSums[i] += v
	}
	tr.complete++
	tr.addSpanLocked("export.durable", seq, f.span, at, at)
	delete(tr.written, seq)
	delete(tr.inflight, seq)
}

// detectLoop is the traced pass's checking routine: the fixed-interval
// body of detect.Detector.Run — wait T, CheckNow, and on cancellation a
// final CheckNow and an exporter flush — with each checkpoint timed.
func (tr *tracer) detectLoop(ctx context.Context, det *detect.Detector, exp detect.TraceExporter) {
	defer tr.detecting(time.Now())
	for {
		select {
		case <-ctx.Done():
			tr.checkpoint(det)
			_ = exp.Flush() // exporter errors are sticky; teardown's Close reports them
			return
		case <-time.After(checkInterval):
			tr.checkpoint(det)
		}
	}
}

// detecting adds the time since began to the time the detector was
// running, the base of the per-second layer rates.
func (tr *tracer) detecting(began time.Time) {
	tr.mu.Lock()
	tr.detectWall += time.Since(began)
	tr.mu.Unlock()
}

func (tr *tracer) checkpoint(det *detect.Detector) {
	before := det.Stats().Events
	t0 := time.Now()
	det.CheckNow()
	t1 := time.Now()
	n := det.Stats().Events - before
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.checkNs.add(int64(t1.Sub(t0)))
	tr.checkEvents.add(int64(n))
	tr.checks++
	tr.replayed += int64(n)
	tr.checkBusy += t1.Sub(t0)
	tr.addSpanLocked("detect.checkpoint", 0, -1, tr.since(t0), tr.since(t1))
}

// query times one trace-store query split into its two calls.
func (tr *tracer) query(open, replay time.Duration, files, events int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.openNs.add(int64(open))
	tr.replayNs.add(int64(replay))
	tr.queries++
	tr.filesOpened += int64(files)
	tr.queryEvs += int64(events)
}

// pipelineTotals are the write-side totals the tracer cannot see
// itself: events recorded and the bytes they occupy on disk.
type pipelineTotals struct {
	events int64
	bytes  int64
}

// publish writes the per-layer metrics into rep.
func (tr *tracer) publish(rep *report, tot pipelineTotals) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rep.setQuantile("history.append_ns_p50", "ns", tr.appendNs, 0.50, 1)
	rep.setQuantile("history.append_ns_p99", "ns", tr.appendNs, 0.99, 1)
	rep.set("history.appends_per_s", "events/s", perSecond(tot.events, tr.detectWall))
	checks := tr.checkNs
	rep.setQuantile("detect.checkpoint_ns_p50", "ns", checks, 0.50, 1)
	rep.setMean("detect.checkpoint_ns_mean", "ns", checks, 1)
	rep.set("detect.checkpoints_per_s", "1/s", perSecond(tr.checks, tr.detectWall))
	rep.setQuantile("detect.events_per_checkpoint_p50", "events", tr.checkEvents, 0.50, 1)
	if tr.replayed > 0 {
		rep.set("detect.ns_per_replayed_event", "ns", float64(tr.checkBusy)/float64(tr.replayed))
	} else {
		rep.setNull("detect.ns_per_replayed_event", "ns", "no events replayed")
	}
	if tr.detectWall > 0 {
		rep.set("detect.busy_share", "ratio", tr.checkBusy.Seconds()/tr.detectWall.Seconds())
	}
	rep.setQuantile("export.consume_ns_p50", "ns", tr.consumeNs, 0.50, 1)
	rep.setQuantile("export.consume_ns_p90", "ns", tr.consumeNs, 0.90, 1)
	rep.setQuantile("export.queue_wait_us_p50", "us", tr.queueNs, 0.50, 1e3)
	rep.setQuantile("export.queue_wait_us_p90", "us", tr.queueNs, 0.90, 1e3)
	rep.setQuantile("export.write_us_p50", "us", tr.writeNs, 0.50, 1e3)
	rep.setQuantile("export.write_us_p90", "us", tr.writeNs, 0.90, 1e3)
	rep.set("export.records_per_s", "records/s", perSecond(tr.records, tr.detectWall))
	if tot.events > 0 {
		rep.set("export.bytes_per_event", "bytes", float64(tot.bytes)/float64(tot.events))
	}
	for i, name := range stageNames {
		s := tr.stages[i]
		if tr.complete > 0 {
			rep.set(name+"_mean", "ms", float64(tr.stageSums[i])/float64(tr.complete)/1e6)
		} else {
			rep.setNull(name+"_mean", "ms", "no followed event became durable")
		}
		if i != stWrite {
			rep.setQuantile(name+"_p50", "ms", s, 0.50, 1e6)
			rep.setQuantile(name+"_p99", "ms", s, 0.99, 1e6)
		}
	}
	// Accounting check: the stage means must add up to the end-to-end
	// mean. The stages share their boundary timestamps, so any error here
	// means a followed event was timed inconsistently.
	if tr.complete > 0 {
		var parts int64
		for i := stRecordToDrain; i <= stWriteToDurable; i++ {
			parts += tr.stageSums[i]
		}
		total := tr.stageSums[stRecordToDurable]
		errPct := 0.0
		if total != 0 {
			errPct = 100 * float64(parts-total) / float64(total)
		}
		rep.set("pipeline.accounting_error_pct", "%", math.Abs(errPct))
	}
	rep.set("pipeline.followed_events", "count", float64(tr.complete))
	rep.set("pipeline.unmatched_samples", "count", float64(len(tr.inflight)))
	rep.set("trace.spans_dropped", "count", float64(tr.dropped))
	if tr.rtNs.n+tr.rtViolNs.n > 0 {
		rep.setQuantile("detect.realtime.append_ns_p50", "ns", tr.rtNs, 0.50, 1)
		rep.setQuantile("detect.realtime.append_ns_p99", "ns", tr.rtNs, 0.99, 1)
		rep.setQuantile("detect.realtime.violating_append_us_p50", "us", tr.rtViolNs, 0.50, 1e3)
		rep.setQuantile("detect.realtime.violating_append_us_p99", "us", tr.rtViolNs, 0.99, 1e3)
	}
	if tr.queries > 0 {
		rep.setQuantile("export.index.open_us_p50", "us", tr.openNs, 0.50, 1e3)
		rep.setQuantile("export.index.open_us_p99", "us", tr.openNs, 0.99, 1e3)
		rep.setQuantile("export.index.replay_ms_p50", "ms", tr.replayNs, 0.50, 1e6)
		rep.setQuantile("export.index.replay_ms_p99", "ms", tr.replayNs, 0.99, 1e6)
		rep.set("export.index.files_opened_per_query", "files", float64(tr.filesOpened)/float64(tr.queries))
		rep.set("export.index.events_per_query", "events", float64(tr.queryEvs)/float64(tr.queries))
	}
}

// writeSpans writes the kept spans to path as JSON.
func (tr *tracer) writeSpans(path, workload string, seed uint64) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Dropped  int64  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, tr.dropped, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
