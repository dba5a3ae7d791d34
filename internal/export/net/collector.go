package netexport

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"robustmon/internal/export"
	"robustmon/internal/export/index"
	"robustmon/internal/obs"
)

// CollectorConfig parameterises a Collector.
type CollectorConfig struct {
	// Dir is the fleet root. Each origin gets Dir/<origin>/ holding its
	// own WAL files, trace index and resume state — a directory every
	// existing offline tool (montrace, SeekReader, the compactor)
	// understands unchanged.
	Dir string
	// AckEvery flushes the origin's WAL and acknowledges after this
	// many applied records (default 64). Smaller trims producer buffers
	// faster; larger amortises fsyncs. A producer FLUSH always forces
	// an immediate flush-and-ack regardless.
	AckEvery int
	// MaxFileBytes and RotateEvery configure each origin's WALSink
	// (zero: export defaults).
	MaxFileBytes int64
	RotateEvery  time.Duration
	// NoIndex disables the per-origin trace-index maintainer.
	NoIndex bool
	// CompactEvery and Compact arm per-origin background compaction:
	// they become the CompactEvery/Compact of each origin's WALSink
	// (see export.WALConfig), so once an origin's sink has sealed
	// CompactEvery files on top of its last pass's floor, Compact runs
	// against the origin's directory on its own goroutine — one in
	// flight per origin at a time, so a slow pass never stacks. Compact
	// must leave the newest file alone (compact.Config.KeepNewest >= 1,
	// the default): the origin's sink is live and appending to it. Zero
	// (or a nil Compact) disables.
	CompactEvery int
	Compact      func(dir string) error
	// Obs, when set, instruments the collector: per-origin
	// collect_records_total{origin="x"}, collect_dup_records_total and
	// collect_durable_seq gauges, plus process-wide
	// collect_conns_total and the collect_active_origins gauge. The
	// origins' sinks count on it too, summed over origins: the
	// export_wal_* series and the compaction passes
	// (export_compactions_total, export_compact_errors_total). The
	// same registry can back obs.StartServer for scraping.
	Obs *obs.Registry
}

// Collector is the fleet-mode server: it accepts producer
// connections, resume-handshakes each one against the origin's
// durable state, checks each record frame and appends its bytes
// unchanged to the origin's WALSink, and acknowledges durability. One
// connection per origin at a time; one goroutine per connection.
type Collector struct {
	cfg CollectorConfig

	mu      sync.Mutex
	origins map[string]*originState
	closed  bool

	lMu       sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{} // live producer connections
	wg        sync.WaitGroup

	connsTotal *obs.Counter
	actives    *obs.Gauge
}

// originState is one origin's server-side stack and resume cursor.
type originState struct {
	mu      sync.Mutex
	dir     string
	sink    *export.WALSink
	maint   *index.Maintainer
	durable uint64 // persisted resume point
	applied uint64 // durable + records applied since the last flush
	pending int    // records applied since the last flush-and-ack
	active  bool   // a connection currently owns this origin

	// Liveness cursors for the fleet health timeline (moncollect's
	// staleness rules read them through Activity): when the last
	// record frame applied, how many have, and the horizon and capture
	// instant of the newest health snapshot among them.
	lastRecord    time.Time
	applied64     int64
	lastHealthSeq int64
	lastHealthAt  time.Time

	records *obs.Counter
	dups    *obs.Counter
	durGa   *obs.Gauge
}

// NewCollector creates the fleet root and returns a collector ready
// to Serve.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 64
	}
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("netexport: create fleet root: %w", err)
	}
	c := &Collector{
		cfg:     cfg,
		origins: make(map[string]*originState),
		conns:   make(map[net.Conn]struct{}),
	}
	if reg := cfg.Obs; reg != nil {
		c.connsTotal = reg.Counter("collect_conns_total")
		c.actives = reg.Gauge("collect_active_origins")
	}
	return c, nil
}

// Serve accepts producer connections on l until the collector closes
// (or the listener fails). It blocks; run it on its own goroutine
// when serving multiple listeners.
func (c *Collector) Serve(l net.Listener) error {
	c.lMu.Lock()
	if c.isClosed() {
		c.lMu.Unlock()
		l.Close()
		return fmt.Errorf("netexport: collector closed")
	}
	c.listeners = append(c.listeners, l)
	c.lMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if c.isClosed() {
				return nil
			}
			return err
		}
		c.lMu.Lock()
		c.conns[conn] = struct{}{}
		c.lMu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer func() {
				c.lMu.Lock()
				delete(c.conns, conn)
				c.lMu.Unlock()
			}()
			c.handle(conn)
		}()
	}
}

func (c *Collector) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Close stops accepting, waits for in-flight connections to unwind
// (each flushes its origin durable on teardown), and closes every
// origin's sink, which waits for that origin's compaction in flight.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.lMu.Lock()
	for _, l := range c.listeners {
		l.Close()
	}
	// Sever live producer connections too: a handler blocked mid-read
	// would otherwise stall Close forever. Producers treat the sever
	// like any partition — buffer and resume against the next
	// collector incarnation.
	for conn := range c.conns {
		conn.Close()
	}
	c.lMu.Unlock()
	c.wg.Wait()
	var firstErr error
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.origins {
		st.mu.Lock()
		if err := st.flushLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := st.sink.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		st.mu.Unlock()
	}
	return firstErr
}

// FleetDirName is the reserved subdirectory of the fleet root where
// the collector's own fleet-level timeline lands (moncollect's fleet
// health records and staleness alerts). Producers cannot claim it as
// an origin, so the fleet timeline never interleaves with a producer's
// WAL.
const FleetDirName = "_fleet"

// origin returns (creating on first contact) the named origin's
// state.
func (c *Collector) origin(name string) (*originState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("netexport: collector closed")
	}
	if name == FleetDirName {
		return nil, fmt.Errorf("netexport: origin %q is reserved for the fleet timeline", name)
	}
	if st, ok := c.origins[name]; ok {
		return st, nil
	}
	dir := filepath.Join(c.cfg.Dir, name)
	walCfg := export.WALConfig{
		MaxFileBytes: c.cfg.MaxFileBytes,
		RotateEvery:  c.cfg.RotateEvery,
		CompactEvery: c.cfg.CompactEvery,
		Compact:      c.cfg.Compact,
		Obs:          c.cfg.Obs,
	}
	st := &originState{dir: dir, durable: loadShipState(dir)}
	st.applied = st.durable
	if !c.cfg.NoIndex {
		st.maint = index.NewMaintainer(dir)
		walCfg.OnSeal = []export.SealedSink{st.maint}
	}
	sink, err := export.NewWALSink(dir, walCfg)
	if err != nil {
		return nil, err
	}
	st.sink = sink
	if reg := c.cfg.Obs; reg != nil {
		st.records = reg.Counter(`collect_records_total{origin="` + name + `"}`)
		st.dups = reg.Counter(`collect_dup_records_total{origin="` + name + `"}`)
		st.durGa = reg.Gauge(`collect_durable_seq{origin="` + name + `"}`)
		st.durGa.Set(int64(st.durable))
	}
	c.origins[name] = st
	return st, nil
}

// flushLocked makes the origin's applied records durable and advances
// the persisted resume point. Caller holds st.mu.
func (st *originState) flushLocked() error {
	if st.applied == st.durable && st.pending == 0 {
		return nil
	}
	if err := st.sink.Flush(); err != nil {
		return err
	}
	if err := saveShipState(st.dir, st.applied); err != nil {
		return err
	}
	st.durable = st.applied
	st.pending = 0
	st.durGa.Set(int64(st.durable))
	return nil
}

// CompactOrigins runs fn against every known origin's directory, each
// on its own goroutine through the origin sink's launcher
// (export.WALSink.Compact), the one background compaction uses: an
// origin with a pass already in flight is skipped, not queued. This is
// the wall-clock retention timer's entry point: moncollect calls it on
// a ticker with a compact.Dir closure whose RetainBefore floor
// advances each tick. No-op after Close.
func (c *Collector) CompactOrigins(fn func(dir string) error) {
	// c.mu is held throughout so no pass can start after Close has
	// begun closing the sinks.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	for _, st := range c.origins {
		st.mu.Lock()
		st.sink.Compact(fn)
		st.mu.Unlock()
	}
}

// handle runs one producer connection: HELLO/WELCOME, then record
// frames until the connection drops.
func (c *Collector) handle(conn net.Conn) {
	defer conn.Close()
	c.connsTotal.Inc()
	br := bufio.NewReader(conn)
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	body, err := readFrame(br, nil)
	if err != nil {
		return
	}
	origin, err := parseHello(body)
	if err != nil {
		_, _ = conn.Write(appendFrame(nil, appendErrorFrame(nil, err.Error())))
		return
	}
	st, err := c.origin(origin)
	if err != nil {
		_, _ = conn.Write(appendFrame(nil, appendErrorFrame(nil, err.Error())))
		return
	}

	// One connection owns an origin at a time: a duplicate producer
	// (misconfiguration, or a restarted producer racing its dying
	// predecessor) is refused rather than interleaved into the WAL.
	st.mu.Lock()
	if st.active {
		st.mu.Unlock()
		_, _ = conn.Write(appendFrame(nil, appendErrorFrame(nil,
			fmt.Sprintf("origin %q already connected", origin))))
		return
	}
	st.active = true
	welcome := st.durable
	st.mu.Unlock()
	c.actives.Add(1)
	defer func() {
		st.mu.Lock()
		_ = st.flushLocked() // best-effort: teardown durability
		st.active = false
		st.mu.Unlock()
		c.actives.Add(-1)
	}()

	if _, err := conn.Write(appendFrame(nil, appendWelcome(nil, welcome))); err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{})

	// One frame buffer serves the whole connection: apply copies the
	// record bytes into the WAL's buffer and the annotations it decodes
	// own their strings, so nothing holds the previous frame. Every ACK
	// frame is built in one reused buffer too.
	var buf, ack []byte
	for {
		body, err := readFrame(br, buf)
		if err != nil {
			return // torn frame or dropped connection: resync on reconnect
		}
		buf = body
		switch {
		case len(body) > 0 && body[0] == frameRecord:
			seq, rec, err := parseRecordFrame(body)
			if err != nil {
				_, _ = conn.Write(appendFrame(nil, appendErrorFrame(nil, err.Error())))
				return
			}
			if err := c.apply(st, conn, &ack, seq, rec); err != nil {
				_, _ = conn.Write(appendFrame(nil, appendErrorFrame(nil, err.Error())))
				return
			}
		case len(body) > 0 && body[0] == frameFlush:
			st.mu.Lock()
			err := st.flushLocked()
			durable := st.durable
			st.mu.Unlock()
			if err != nil {
				_, _ = conn.Write(appendFrame(nil, appendErrorFrame(nil, err.Error())))
				return
			}
			if err := writeAck(conn, &ack, durable); err != nil {
				return
			}
		default:
			_, _ = conn.Write(appendFrame(nil, appendErrorFrame(nil, "unexpected frame")))
			return
		}
	}
}

// apply checks one record frame's bytes and lands them unchanged in
// the origin's WAL (export.WALSink.WriteEncoded), acking when the
// cadence is due. Only a health snapshot comes back decoded, for the
// liveness cursors. Duplicates (a resent tail whose ack was lost) are
// skipped and counted before any check; sequences may jump forward only
// past a lost resume-state file, where the producer's trim — which
// only ever follows an ack, which only ever follows durability — is
// the authority.
func (c *Collector) apply(st *originState, conn net.Conn, ack *[]byte, seq uint64, recBytes []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq <= st.applied {
		st.dups.Inc()
		return nil
	}
	rec, err := st.sink.WriteEncoded(recBytes)
	if err != nil {
		return err
	}
	st.applied = seq
	st.pending++
	st.records.Inc()
	st.lastRecord = time.Now()
	st.applied64++
	if rec.Health != nil && rec.Health.Seq >= st.lastHealthSeq {
		st.lastHealthSeq = rec.Health.Seq
		st.lastHealthAt = rec.Health.At
	}
	if st.pending >= c.cfg.AckEvery {
		if err := st.flushLocked(); err != nil {
			return err
		}
		if err := writeAck(conn, ack, st.durable); err != nil {
			return fmt.Errorf("netexport: write ack: %w", err)
		}
	}
	return nil
}

// writeAck sends an ACK frame for seq, built in *buf, the connection's
// reused ACK buffer.
func writeAck(conn net.Conn, buf *[]byte, seq uint64) error {
	b, at := beginFrame((*buf)[:0])
	*buf = endFrame(appendAck(b, seq), at)
	_, err := conn.Write(*buf)
	return err
}

// Origins lists the origins the collector has seen this process
// (sorted order not guaranteed).
func (c *Collector) Origins() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.origins))
	for name := range c.origins {
		out = append(out, name)
	}
	return out
}

// OriginActivity is one origin's liveness summary — the input to the
// fleet-level staleness rules (moncollect sets per-origin gauges from
// it and lets an obsrules engine judge them).
type OriginActivity struct {
	// Origin names the producer.
	Origin string
	// Connected reports whether a connection currently owns the origin.
	Connected bool
	// LastRecord is the collector-side wall-clock instant the last
	// record frame was applied (zero before the first this process —
	// resumed origins start stale until their producer reconnects).
	LastRecord time.Time
	// Records counts record frames applied this process (duplicates
	// excluded).
	Records int64
	// LastHealthSeq and LastHealthAt are the sequence horizon and
	// producer-side capture instant of the newest health snapshot
	// applied (zero if none yet).
	LastHealthSeq int64
	LastHealthAt  time.Time
}

// Activity reports every known origin's liveness, sorted by origin
// name so callers render a stable fleet timeline.
func (c *Collector) Activity() []OriginActivity {
	c.mu.Lock()
	states := make(map[string]*originState, len(c.origins))
	for name, st := range c.origins {
		states[name] = st
	}
	c.mu.Unlock()
	out := make([]OriginActivity, 0, len(states))
	for name, st := range states {
		st.mu.Lock()
		out = append(out, OriginActivity{
			Origin:        name,
			Connected:     st.active,
			LastRecord:    st.lastRecord,
			Records:       st.applied64,
			LastHealthSeq: st.lastHealthSeq,
			LastHealthAt:  st.lastHealthAt,
		})
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}
