package netexport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"robustmon/internal/export"
	"robustmon/internal/history"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
)

// NetSinkConfig parameterises a NetSink.
type NetSinkConfig struct {
	// Addr is the collector's address ("host:port").
	Addr string
	// Origin names this producer on the collector — its per-origin
	// subdirectory and metric label. Must satisfy ValidOrigin. Use a
	// fresh origin per process incarnation (ship and event sequences
	// both restart at 1 on restart, and the collector's store is
	// append-only per origin).
	Origin string
	// Dial opens the transport (default net.Dial). Tests inject
	// faults.NetFault.Dial here.
	Dial func(network, addr string) (net.Conn, error)
	// BufferRecords bounds the un-acked record buffer (default 1024).
	// The buffer is the partition ride-out: records stay in it until
	// the collector acknowledges them durable, and are replayed from it
	// after a reconnect.
	BufferRecords int
	// Policy picks what happens when the buffer fills during an
	// outage: export.Block stalls the writer until space frees
	// (lossless, backpressure reaches the exporter's own buffer), and
	// export.Drop discards the new record and counts it.
	Policy export.Policy
	// RetryMin and RetryMax bound the reconnect backoff (defaults
	// 50ms and 2s); each retry doubles the delay, with ±50% jitter so
	// a fleet partition doesn't heal into a thundering herd.
	RetryMin, RetryMax time.Duration
	// FlushTimeout bounds how long Flush waits for the collector to
	// acknowledge everything accepted so far (default 30s).
	FlushTimeout time.Duration
	// Obs, when set, instruments the sink: netship_records_total,
	// netship_acked_total, netship_dropped_total (conserving: records =
	// acked + dropped + the netship_buffered gauge), plus
	// netship_reconnects_total and netship_resent_total.
	Obs *obs.Registry
}

// shipRec is one buffered record: its ship sequence and its fully
// framed record bytes (export record framing, ready for the wire and
// byte-identical to the local WAL form), held in frame, a buffer from
// export's frame pool (export.EncodeFrame).
type shipRec struct {
	seq   uint64
	data  []byte
	frame *[]byte
}

// release returns r's frame to the pool: r must be out of the buffer
// and out of the serve loop's hands, since the next record encoded may
// reuse the bytes.
func (r shipRec) release() {
	if r.frame != nil {
		export.PutFrame(r.frame)
	}
}

type shipMetrics struct {
	records    *obs.Counter
	acked      *obs.Counter
	dropped    *obs.Counter
	reconnects *obs.Counter
	resent     *obs.Counter
	buffered   *obs.Gauge
}

func newShipMetrics(reg *obs.Registry) shipMetrics {
	if reg == nil {
		return shipMetrics{}
	}
	return shipMetrics{
		records:    reg.Counter("netship_records_total"),
		acked:      reg.Counter("netship_acked_total"),
		dropped:    reg.Counter("netship_dropped_total"),
		reconnects: reg.Counter("netship_reconnects_total"),
		resent:     reg.Counter("netship_resent_total"),
		buffered:   reg.Gauge("netship_buffered"),
	}
}

// NetSinkStats counts a sink's activity. Accepted = Acked + Dropped +
// Buffered always holds — the conservation law the degraded-network
// tests pin.
type NetSinkStats struct {
	// Accepted counts records submitted to the sink.
	Accepted int64
	// Acked counts records the collector acknowledged durable.
	Acked int64
	// Dropped counts records discarded: buffer-full under the Drop
	// policy, or submitted after Close.
	Dropped int64
	// Buffered is the current un-acked buffer depth.
	Buffered int
	// Reconnects counts completed resume handshakes.
	Reconnects int64
	// Resent counts records retransmitted after a reconnect.
	Resent int64
}

// NetSink ships trace records to a collector. It implements
// export.Sink plus the MarkerSink, HealthSink and AlertSink
// extensions, so it
// slots anywhere a WALSink does — an exporter's sink, one leg of an
// export.TeeSink, or WALConfig.OnSeal-adjacent plumbing. Write calls
// encode and buffer; a background shipper owns the connection,
// handshakes a resume point after every (re)connect, streams the
// buffer tail, and trims it as acks arrive. Like the sinks it stands
// in for, the write side is driven by one goroutine (the exporter's
// writer); Flush and Stats are safe from any goroutine.
type NetSink struct {
	cfg NetSinkConfig
	met shipMetrics

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []shipRec // un-acked records, ascending seq
	seq    uint64    // last assigned ship seq (first record gets 1)
	sent   uint64    // highest seq handed to the current connection
	acked  uint64    // highest collector-durable seq
	flushQ uint64    // highest seq a Flush has requested an ack for
	closed bool
	stats  NetSinkStats

	// The serve loop copies the frames of seqs readFirst..readLast onto
	// the wire without holding mu (readLast and readTrimmed are 0
	// between copies). trimLocked leaves those frames in its hands,
	// raising readTrimmed to the last one it trims, and the serve loop
	// releases them once its copy is done (doneReading).
	readFirst, readLast, readTrimmed uint64

	done chan struct{} // shipper goroutine exited
}

// NewNetSink validates cfg, applies defaults and starts the shipper.
// The collector does not need to be reachable yet: records buffer
// until the first successful handshake.
func NewNetSink(cfg NetSinkConfig) (*NetSink, error) {
	if !ValidOrigin(cfg.Origin) {
		return nil, fmt.Errorf("netexport: invalid origin %q", cfg.Origin)
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("netexport: no collector address")
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.BufferRecords <= 0 {
		cfg.BufferRecords = 1024
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 50 * time.Millisecond
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = 2 * time.Second
		if cfg.RetryMax < cfg.RetryMin {
			cfg.RetryMax = cfg.RetryMin
		}
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = 30 * time.Second
	}
	s := &NetSink{cfg: cfg, met: newShipMetrics(cfg.Obs), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s, nil
}

// WriteSegment encodes and buffers one segment record.
func (s *NetSink) WriteSegment(seg export.Segment) error {
	if len(seg.Events) == 0 {
		return nil
	}
	return s.write(export.Record{Segment: &seg})
}

// WriteMarker encodes and buffers one recovery-marker record.
func (s *NetSink) WriteMarker(m history.RecoveryMarker) error {
	return s.write(export.Record{Marker: &m})
}

// WriteHealth encodes and buffers one health-snapshot record.
func (s *NetSink) WriteHealth(h obs.HealthRecord) error {
	return s.write(export.Record{Health: &h})
}

// WriteAlert encodes and buffers one threshold-alert record.
func (s *NetSink) WriteAlert(a obsrules.Alert) error {
	return s.write(export.Record{Alert: &a})
}

// write encodes one record into a pooled frame, in the byte-identical
// record framing the local WAL uses, and buffers it.
func (s *NetSink) write(r export.Record) error {
	f, err := export.EncodeFrame(r)
	if err != nil {
		return err
	}
	return s.enqueue(shipRec{data: *f, frame: f})
}

// enqueue applies the backpressure policy and appends the record to
// the un-acked buffer, numbering it; a record it drops goes straight
// back to the frame pool.
func (s *NetSink) enqueue(r shipRec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Accepted++
	s.met.records.Inc()
	for len(s.buf) >= s.cfg.BufferRecords && !s.closed {
		if s.cfg.Policy == export.Drop {
			s.stats.Dropped++
			s.met.dropped.Inc()
			r.release()
			return nil
		}
		s.cond.Wait()
	}
	if s.closed {
		s.stats.Dropped++
		s.met.dropped.Inc()
		r.release()
		return fmt.Errorf("netexport: sink closed")
	}
	s.seq++
	r.seq = s.seq
	s.buf = append(s.buf, r)
	s.met.buffered.Set(int64(len(s.buf)))
	s.cond.Broadcast()
	return nil
}

// Flush asks the collector to make everything accepted so far durable
// and waits (bounded by FlushTimeout) for the ack covering it.
// Records dropped by policy are not waited for — they are gone, and
// the drop counter owns them.
func (s *NetSink) Flush() error {
	s.mu.Lock()
	target := s.seq
	if target > s.flushQ {
		s.flushQ = target
	}
	s.cond.Broadcast()
	timedOut := false
	timer := time.AfterFunc(s.cfg.FlushTimeout, func() {
		s.mu.Lock()
		timedOut = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	for s.acked < target && !s.closed && !timedOut {
		s.cond.Wait()
	}
	acked, closed := s.acked, s.closed
	s.mu.Unlock()
	timer.Stop()
	switch {
	case acked >= target:
		return nil
	case closed:
		return fmt.Errorf("netexport: sink closed with %d records un-acked", target-acked)
	default:
		return fmt.Errorf("netexport: flush timed out with %d records un-acked", target-acked)
	}
}

// Close stops the shipper. It first attempts a bounded Flush so an
// orderly shutdown ships the tail; whatever remains un-acked stays
// counted in Buffered (the conservation law holds through Close).
func (s *NetSink) Close() error {
	err := s.Flush()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	return err
}

// Stats returns a consistent snapshot of the sink's counters.
func (s *NetSink) Stats() NetSinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Buffered = len(s.buf)
	return st
}

// run is the shipper: connect with backoff, resume-handshake, stream,
// repeat until closed.
func (s *NetSink) run() {
	defer close(s.done)
	backoff := s.cfg.RetryMin
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		conn, err := s.connect()
		if err != nil {
			// Partition (or collector down): ride it out in the buffer and
			// retry after a jittered, capped exponential backoff.
			if !s.sleep(jitter(backoff)) {
				return
			}
			backoff *= 2
			if backoff > s.cfg.RetryMax {
				backoff = s.cfg.RetryMax
			}
			continue
		}
		backoff = s.cfg.RetryMin
		s.serve(conn)
	}
}

// jitter spreads d over [d/2, 3d/2).
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleep waits for d or until the sink closes; it reports whether the
// sink is still open.
func (s *NetSink) sleep(d time.Duration) bool {
	deadline := time.Now().Add(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && time.Now().Before(deadline) {
		remain := time.Until(deadline)
		timer := time.AfterFunc(remain, func() { s.cond.Broadcast() })
		s.cond.Wait()
		timer.Stop()
	}
	return !s.closed
}

// connect dials and runs the resume handshake: send HELLO, read
// WELCOME, trim everything the collector already holds durable, and
// rewind the send cursor so the surviving tail is retransmitted.
func (s *NetSink) connect() (net.Conn, error) {
	conn, err := s.cfg.Dial("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(appendFrame(nil, appendHello(nil, s.cfg.Origin))); err != nil {
		conn.Close()
		return nil, err
	}
	body, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(body) > 0 && body[0] == frameError {
		conn.Close()
		return nil, fmt.Errorf("netexport: collector refused: %s", parseErrorFrame(body))
	}
	lastDurable, err := parseWelcome(body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})

	s.mu.Lock()
	// An ack lost to the previous partition: the WELCOME is the
	// collector re-asserting durability, so trim as if it had arrived.
	s.trimLocked(lastDurable)
	// Everything still buffered must be (re)transmitted on this
	// connection.
	if resend := len(s.buf); resend > 0 && s.sent > s.acked {
		s.stats.Resent += int64(resend)
		s.met.resent.Add(int64(resend))
	}
	s.sent = s.acked
	s.stats.Reconnects++
	s.met.reconnects.Inc()
	s.mu.Unlock()
	return conn, nil
}

// trimLocked discards buffered records with seq ≤ durable and credits
// them as acked. Each record's frame goes back to the pool, unless the
// serve loop is still copying it: a collector may ack ahead of what it
// has read, and then the serve loop releases it (doneReading). Caller
// holds mu.
func (s *NetSink) trimLocked(durable uint64) {
	if durable <= s.acked {
		return
	}
	i := 0
	for i < len(s.buf) && s.buf[i].seq <= durable {
		if r := s.buf[i]; r.seq >= s.readFirst && r.seq <= s.readLast {
			s.readTrimmed = r.seq
		} else {
			r.release()
		}
		i++
	}
	if i > 0 {
		s.stats.Acked += int64(i)
		s.met.acked.Add(int64(i))
		n := copy(s.buf, s.buf[i:])
		// Sliding the un-acked tail to the front leaves acknowledged
		// records (and stale copies of the tail) in the slots behind it;
		// clear them, or their bytes stay reachable until a later append
		// overwrites each slot.
		clear(s.buf[n:])
		s.buf = s.buf[:n]
		s.met.buffered.Set(int64(len(s.buf)))
	}
	s.acked = durable
	s.cond.Broadcast()
}

// maxShipWrite caps one connection write of coalesced RECORD frames:
// large enough to amortise the write call over many small records,
// small enough that the shipper's frame buffer stays modest.
const maxShipWrite = 64 << 10

// serve streams the buffer over one connection until it breaks or the
// sink closes. A companion goroutine reads acks; either side closing
// the connection unblocks the other.
func (s *NetSink) serve(conn net.Conn) {
	defer conn.Close()
	broken := false // guarded by s.mu; set when the ack reader dies
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := bufio.NewReader(conn)
		var buf []byte
		for {
			body, err := readFrame(br, buf)
			if err != nil {
				break
			}
			buf = body
			if len(body) > 0 && body[0] == frameError {
				break
			}
			seq, err := parseAck(body)
			if err != nil {
				break
			}
			s.mu.Lock()
			s.trimLocked(seq)
			s.mu.Unlock()
		}
		conn.Close()
		s.mu.Lock()
		broken = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	// The batch of records to send and the frames built from them are
	// reused from wake to wake.
	var frame []byte
	var batch []shipRec
	var flushSent uint64
	for {
		s.mu.Lock()
		for !s.closed && !broken && !s.hasUnsentLocked() && s.flushQ <= flushSent {
			s.cond.Wait()
		}
		if broken {
			s.mu.Unlock()
			break
		}
		batch = batch[:0]
		for _, r := range s.buf {
			if r.seq > s.sent {
				batch = append(batch, r)
			}
		}
		wantFlush := s.flushQ > flushSent
		closed := s.closed
		if len(batch) > 0 {
			s.sent = batch[len(batch)-1].seq
			s.readFirst, s.readLast = batch[0].seq, s.sent
		}
		if wantFlush {
			flushSent = s.flushQ
		}
		s.mu.Unlock()

		var err error
		frame, err = s.ship(conn, frame, batch, wantFlush)
		s.doneReading(batch)
		if err != nil {
			s.rewind()
			break
		}
		if closed {
			// Give in-flight acks a moment to land, then let the deferred
			// Close sever the connection; the ack reader exits with it.
			s.awaitDrain()
			break
		}
	}
	conn.Close()
	<-readerDone
}

// ship writes batch's RECORD frames, and a FLUSH frame if asked, to
// conn. The frames are built in place in frame, which it returns for
// reuse, and written in chunks of up to maxShipWrite bytes (a larger
// frame goes alone); the FLUSH frame rides the last chunk.
func (s *NetSink) ship(conn net.Conn, frame []byte, batch []shipRec, wantFlush bool) ([]byte, error) {
	frame = frame[:0]
	for _, r := range batch {
		if len(frame) > 0 && len(frame)+len(r.data)+recordFrameOverhead > maxShipWrite {
			if _, err := conn.Write(frame); err != nil {
				return frame, err
			}
			frame = frame[:0]
		}
		frame = appendRecordFrame(frame, r.seq, r.data)
	}
	if wantFlush {
		var at int
		frame, at = beginFrame(frame)
		frame = endFrame(appendFlushFrame(frame), at)
	}
	if len(frame) > 0 {
		if _, err := conn.Write(frame); err != nil {
			return frame, err
		}
	}
	return frame, nil
}

// doneReading ends the serve loop's copy of batch: the frames trimmed
// meanwhile — the acknowledged prefix of batch — go back to the pool
// now. It clears batch, so the reused slice keeps no frame reachable.
func (s *NetSink) doneReading(batch []shipRec) {
	s.mu.Lock()
	for _, r := range batch {
		if r.seq <= s.readTrimmed {
			r.release()
		}
	}
	s.readLast, s.readTrimmed = 0, 0
	s.mu.Unlock()
	clear(batch)
}

// hasUnsentLocked reports whether any buffered record still awaits
// its first transmission on the current connection. Caller holds mu.
func (s *NetSink) hasUnsentLocked() bool {
	return len(s.buf) > 0 && s.buf[len(s.buf)-1].seq > s.sent
}

// rewind marks everything un-acked as unsent after a write error, so
// the next connection retransmits it.
func (s *NetSink) rewind() {
	s.mu.Lock()
	s.sent = s.acked
	s.mu.Unlock()
}

// awaitDrain blocks briefly while the closing sink's last acks
// arrive: until the buffer empties, the ack reader dies, or a short
// grace period lapses.
func (s *NetSink) awaitDrain() {
	deadline := time.Now().Add(2 * time.Second)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) > 0 && time.Now().Before(deadline) {
		timer := time.AfterFunc(50*time.Millisecond, func() { s.cond.Broadcast() })
		s.cond.Wait()
		timer.Stop()
	}
}
