package history

import (
	"robustmon/internal/event"
)

// Batched publication: the raw-speed record path. Append pays one
// shard-lock acquire, one global-sequence atomic and two counter
// atomics per event; at millions of events per second those per-event
// costs dominate the whole pipeline (checking moved off the hot path
// long ago). AppendBatch publishes a block of events under a single
// lock acquire, claiming a contiguous sequence range with one atomic
// add, and BatchWriter gives each producer a lock-free staging buffer
// so the block forms without touching any shared state at all.
//
// Semantics are pinned to "N singleton Appends executed at
// publication time": a batch's events receive consecutive global
// sequence numbers claimed under the shard lock, so every shard
// segment stays seq-sorted, drains still return consistent prefixes
// of the global order, and a batch is either wholly visible to a
// drain or not at all. What batching gives up is only *when* an event
// enters the global order — a staged event is invisible (and owns no
// sequence number) until its writer flushes. The explicit handshake
// for that: the detector calls DB.FlushMonitorWriters at every
// checkpoint while the monitors being checkpointed are frozen, so
// hold-world and per-monitor checkpoints observe exactly the events a
// serial singleton-Append run would have recorded (see the flush
// handshake in internal/detect and the byte-identical export
// acceptance test in internal/export).

// DefaultBatchSize is the BatchWriter staging capacity when
// NewBatchWriter is given a non-positive size: large enough to
// amortise the shard lock to noise, small enough that a flush stays
// cache-friendly and checkpoint flushes stay cheap.
const DefaultBatchSize = 256

// AppendBatch records every event in events under the named monitor's
// shard lock in one acquire, assigning them a contiguous block of
// global sequence numbers (one atomic claim for the whole batch). It
// returns the first and last sequence numbers assigned (0, 0 for an
// empty batch). Every event's Monitor field is overwritten with the
// given monitor name, mirroring what monitor.record does on the
// singleton path; events with mixed destinations must be split by the
// caller (one BatchWriter per monitor does).
//
// The events are copied into the shard, and the input slice is
// modified only to stamp Seq and Monitor — the caller may reuse its
// backing array immediately, which is what lets BatchWriter run
// allocation-free in steady state.
func (db *DB) AppendBatch(monitor string, events []event.Event) (first, last int64) {
	n := int64(len(events))
	if n == 0 {
		return 0, 0
	}
	s := db.shardFor(monitor)
	s.mu.Lock()
	// Claimed under the shard lock, like Append: the shard's segment
	// stays sorted by global sequence number, and no concurrent
	// publisher can interleave inside the claimed range.
	base := db.nextSeq.Add(n) - n
	for i := range events {
		events[i].Seq = base + int64(i) + 1
		events[i].Monitor = monitor
	}
	s.segment = append(s.segment, events...)
	if db.keepFull {
		s.full = append(s.full, events...)
	}
	s.mu.Unlock()
	// Counters are atomics read lock-free by rate estimators; updating
	// them outside the critical section shortens the hot path and only
	// delays visibility by nanoseconds.
	db.total.Add(n)
	s.counter.n.Add(n)
	db.met.batches.Inc()
	db.met.batchEvents.Add(n)
	return base + 1, base + n
}

// BatchWriter stages one monitor's events in a fixed-size local buffer
// and publishes them to the database in blocks via AppendBatch — one
// shard-lock acquire and one sequence claim per block instead of per
// event, and not a single shared-memory operation on the staging path.
// Construct with DB.NewBatchWriter; it implements monitor.Recorder, so
// the natural wiring is one writer per monitor:
//
//	w := db.NewBatchWriter(spec.Name, 0)
//	mon, _ := monitor.New(spec, monitor.WithRecorder(w))
//
// # Synchronization contract
//
// A writer is deliberately lock-free: exactly one producer — the
// goroutine(s) serialised by the owning monitor's mutex, or one
// direct-producer goroutine — may call Append, Flush, Pending or
// Close. The checkpoint handshake (DB.FlushMonitorWriters) may flush
// a writer from another goroutine only while its producer is
// quiescent under a happens-before edge; the detector has exactly
// that edge for monitor-fed writers, because monitor.record runs
// under the checkpoint gate's read lock and the detector flushes
// while holding the freeze (the gate's write lock). Direct producers
// are not covered by any freeze: they flush their own writer (or
// Close it) before the events are needed, e.g. before a standalone
// Drain. An event for a different monitor than the writer is bound to
// is published immediately through the singleton DB.Append — correct,
// just unamortised — so a misrouted event can never sit invisibly in
// the wrong writer.
type BatchWriter struct {
	db      *DB
	monitor string
	// buf is the staging block: fixed capacity, appended in place,
	// reset to length zero on flush. No lock, no atomics — see the
	// synchronization contract above.
	buf []event.Event
}

// NewBatchWriter returns a writer publishing to the named monitor's
// shard, staging up to size events (DefaultBatchSize when size <= 0),
// and registers it for the checkpoint flush handshake
// (FlushMonitorWriters). Close the writer when its producer is done so
// the final partial block publishes and the registration is dropped.
func (db *DB) NewBatchWriter(monitor string, size int) *BatchWriter {
	if size <= 0 {
		size = DefaultBatchSize
	}
	w := &BatchWriter{
		db:      db,
		monitor: monitor,
		buf:     make([]event.Event, 0, size),
	}
	db.writerMu.Lock()
	if db.writers == nil {
		db.writers = make(map[*BatchWriter]struct{}, 4)
	}
	db.writers[w] = struct{}{}
	db.writerMu.Unlock()
	return w
}

// Append implements monitor.Recorder: the event is staged locally and
// published (with the rest of its block) on the next flush — buffer
// full, explicit Flush/Close, or a checkpoint handshake. Unlike
// DB.Append the returned copy carries no sequence number: a staged
// event joins the global order only at publication. No caller of the
// Recorder seam reads the sequence number back (the monitor discards
// it; the real-time and external checkers key on Monitor/Proc/Pid),
// which is what makes the deferred assignment safe.
func (w *BatchWriter) Append(e event.Event) event.Event {
	if e.Monitor != w.monitor {
		return w.db.Append(e)
	}
	w.buf = append(w.buf, e)
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
	return e
}

// Flush publishes the staged block, if any. It is essentially free
// when the buffer is empty, which is why the checkpoint handshake can
// afford to flush on every checkpoint. Callers must hold the writer's
// synchronization contract (producer goroutine, or a freeze edge).
func (w *BatchWriter) Flush() { w.flush() }

func (w *BatchWriter) flush() {
	if len(w.buf) == 0 {
		return
	}
	w.db.AppendBatch(w.monitor, w.buf)
	// The backing array is reused: AppendBatch copied the events out.
	w.buf = w.buf[:0]
}

// Pending reports how many events are staged but not yet published —
// observability for tests and the example walkthrough. Subject to the
// writer's synchronization contract.
func (w *BatchWriter) Pending() int { return len(w.buf) }

// Monitor returns the monitor the writer is bound to.
func (w *BatchWriter) Monitor() string { return w.monitor }

// Close flushes the staged block and deregisters the writer from the
// checkpoint handshake. The writer must not be used after Close.
func (w *BatchWriter) Close() {
	w.flush()
	w.db.writerMu.Lock()
	delete(w.db.writers, w)
	w.db.writerMu.Unlock()
}

// FlushMonitorWriters publishes the staged block of every registered
// writer bound to one of the named monitors — the checkpoint half of
// the batching handshake. The detector calls it with exactly the
// monitors it has frozen: frozen monitors record nothing, and the
// freeze is the happens-before edge that makes reading their writers'
// buffers safe (see the BatchWriter synchronization contract), so the
// checkpoint horizon taken right after covers everything recorded
// before the freeze — exactly the serial path's guarantee. Writers of
// monitors outside the set are left untouched: their events are not
// this checkpoint's business, and their producers may be live.
func (db *DB) FlushMonitorWriters(monitors ...string) {
	db.writerMu.Lock()
	var flush []*BatchWriter
	for w := range db.writers {
		for _, m := range monitors {
			if w.monitor == m {
				flush = append(flush, w)
				break
			}
		}
	}
	db.writerMu.Unlock()
	for _, w := range flush {
		w.Flush()
	}
}

// FlushWriters publishes every registered writer's staged block. Every
// writer's producer must be quiescent (the caller has joined or frozen
// them all) — the convenience for standalone drain callers: tests and
// tools that drained the database without a detector. Detector
// checkpoints use FlushMonitorWriters with the frozen subset instead.
func (db *DB) FlushWriters() {
	db.writerMu.Lock()
	writers := make([]*BatchWriter, 0, len(db.writers))
	for w := range db.writers {
		writers = append(writers, w)
	}
	db.writerMu.Unlock()
	for _, w := range writers {
		w.Flush()
	}
}
