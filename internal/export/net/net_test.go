package netexport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/compact"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/obs"
)

// tev/tseq mirror the export package's test fixtures: a deterministic
// segment of events for one monitor.
func tev(monitor string, seq int64) event.Event {
	return event.Event{
		Seq:     seq,
		Monitor: monitor,
		Type:    event.Enter,
		Pid:     seq,
		Proc:    "Op",
		Flag:    event.Completed,
		Time:    time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Millisecond),
	}
}

func tseq(monitor string, from, to int64) event.Seq {
	var s event.Seq
	for i := from; i <= to; i++ {
		s = append(s, tev(monitor, i))
	}
	return s
}

func tmarker(monitor string, horizon int64) history.RecoveryMarker {
	return history.RecoveryMarker{
		Monitor: monitor, Horizon: horizon, Dropped: 2, Rule: "ST-R", Pid: 7,
		At: time.Date(2001, 7, 1, 12, 0, 0, 0, time.UTC),
	}
}

func thealth(seq int64) obs.HealthRecord {
	return obs.HealthRecord{
		At:  time.Date(2001, 7, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second),
		Seq: seq,
		Metrics: obs.Snapshot{Counters: []obs.Metric{
			{Name: "detect_checks_total", Value: seq},
		}},
	}
}

// startCollector runs a collector on a loopback listener and returns
// it with its address.
func startCollector(t *testing.T, cfg CollectorConfig) (*Collector, string) {
	t.Helper()
	col, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = col.Serve(l) }()
	return col, l.Addr().String()
}

// assertReplayIdentical requires the two directories to replay to the
// same trace — compared on the encoded bytes of the merged event
// sequence (the strongest normal form: one byte of divergence fails)
// plus deep-equal markers and health timelines.
func assertReplayIdentical(t *testing.T, localDir, originDir string) {
	t.Helper()
	local, err := export.ReadDir(localDir)
	if err != nil {
		t.Fatalf("read local WAL: %v", err)
	}
	remote, err := export.ReadDir(originDir)
	if err != nil {
		t.Fatalf("read collector WAL: %v", err)
	}
	lb := event.AppendBinary(nil, local.Events)
	rb := event.AppendBinary(nil, remote.Events)
	if !bytes.Equal(lb, rb) {
		t.Fatalf("replayed event streams diverge: local %d events/%d bytes, collector %d events/%d bytes",
			len(local.Events), len(lb), len(remote.Events), len(rb))
	}
	if !reflect.DeepEqual(local.Markers, remote.Markers) {
		t.Fatalf("markers diverge:\nlocal %+v\ncollector %+v", local.Markers, remote.Markers)
	}
	if !reflect.DeepEqual(local.Healths, remote.Healths) {
		t.Fatalf("health timelines diverge:\nlocal %+v\ncollector %+v", local.Healths, remote.Healths)
	}
}

// assertConservation pins the sink's counter law: every accepted
// record is acked, buffered or dropped — nothing leaks.
func assertConservation(t *testing.T, s *NetSink) {
	t.Helper()
	st := s.Stats()
	if st.Accepted != st.Acked+st.Dropped+int64(st.Buffered) {
		t.Fatalf("conservation violated: accepted %d != acked %d + dropped %d + buffered %d",
			st.Accepted, st.Acked, st.Dropped, st.Buffered)
	}
}

func TestProtocolFrameRoundTrip(t *testing.T) {
	t.Parallel()
	var wire []byte
	wire = appendFrame(wire, appendHello(nil, "node-1"))
	wire = appendFrame(wire, appendWelcome(nil, 42))
	wire = appendRecordFrame(wire, 7, []byte("payload"))
	wire = appendFrame(wire, appendAck(nil, 7))
	wire = appendFrame(wire, appendFlushFrame(nil))
	wire = appendFrame(wire, appendErrorFrame(nil, "nope"))

	br := bufio.NewReader(bytes.NewReader(wire))
	b, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if origin, err := parseHello(b); err != nil || origin != "node-1" {
		t.Fatalf("hello = %q, %v", origin, err)
	}
	b, _ = readFrame(br, nil)
	if seq, err := parseWelcome(b); err != nil || seq != 42 {
		t.Fatalf("welcome = %d, %v", seq, err)
	}
	b, _ = readFrame(br, nil)
	seq, rec, err := parseRecordFrame(b)
	if err != nil || seq != 7 || string(rec) != "payload" {
		t.Fatalf("record = %d, %q, %v", seq, rec, err)
	}
	b, _ = readFrame(br, nil)
	if seq, err := parseAck(b); err != nil || seq != 7 {
		t.Fatalf("ack = %d, %v", seq, err)
	}
	b, _ = readFrame(br, nil)
	if len(b) != 1 || b[0] != frameFlush {
		t.Fatalf("flush frame = %v", b)
	}
	b, _ = readFrame(br, nil)
	if msg := parseErrorFrame(b); msg != "nope" {
		t.Fatalf("error frame = %q", msg)
	}

	// A flipped byte is a CRC failure, not a mis-parse.
	bad := appendFrame(nil, appendAck(nil, 9))
	bad[5] ^= 0xff
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(bad)), nil); err == nil {
		t.Fatal("corrupted frame passed CRC")
	}
}

func TestValidOrigin(t *testing.T) {
	t.Parallel()
	for _, ok := range []string{"a", "node-1", "host.rack_3", "A9"} {
		if !ValidOrigin(ok) {
			t.Errorf("ValidOrigin(%q) = false", ok)
		}
	}
	long := make([]byte, maxOriginLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "naïve", string(long)} {
		if ValidOrigin(bad) {
			t.Errorf("ValidOrigin(%q) = true", bad)
		}
	}
}

// TestShipAndReplayIdentical: the happy path — one producer teeing
// into a local WAL and a NetSink; after Flush the collector's
// per-origin directory replays byte-identically.
func TestShipAndReplayIdentical(t *testing.T) {
	t.Parallel()
	fleetDir := t.TempDir()
	col, addr := startCollector(t, CollectorConfig{Dir: fleetDir, AckEvery: 3})
	defer col.Close()

	localDir := t.TempDir()
	local, err := export.NewWALSink(localDir, export.WALConfig{MaxFileBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ship, err := NewNetSink(NetSinkConfig{
		Addr: addr, Origin: "p1", FlushTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tee := export.NewTeeSink(local, ship)

	next := int64(1)
	for i := 0; i < 10; i++ {
		n := next + 4
		if err := tee.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", next, n)}); err != nil {
			t.Fatal(err)
		}
		next = n + 1
	}
	if err := tee.WriteMarker(tmarker("m", next-1)); err != nil {
		t.Fatal(err)
	}
	if err := tee.WriteHealth(thealth(next - 1)); err != nil {
		t.Fatal(err)
	}
	if err := tee.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := tee.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := col.Close(); err != nil {
		t.Fatalf("collector close: %v", err)
	}
	assertReplayIdentical(t, localDir, fleetDir+"/p1")
	assertConservation(t, ship)
	if st := ship.Stats(); st.Dropped != 0 || st.Buffered != 0 || st.Acked != st.Accepted {
		t.Fatalf("clean run left stats %+v", st)
	}
}

// TestDegradedNetwork: the partition/reconnect gauntlet. A
// fault-injected dialer severs the link mid-frame (CutAfter), then
// black-holes the collector entirely (Partition) while the producer
// keeps writing into the buffer, then heals. The collector's replica
// must still replay byte-identically, and the conservation law must
// hold with zero drops under the Block policy.
func TestDegradedNetwork(t *testing.T) {
	t.Parallel()
	fleetDir := t.TempDir()
	reg := obs.NewRegistry()
	col, addr := startCollector(t, CollectorConfig{Dir: fleetDir, AckEvery: 2, Obs: reg})
	defer col.Close()

	nf := faults.NewNetFault()
	localDir := t.TempDir()
	local, err := export.NewWALSink(localDir, export.WALConfig{MaxFileBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	ship, err := NewNetSink(NetSinkConfig{
		Addr: addr, Origin: "flaky", Dial: nf.Dial,
		BufferRecords: 256, Policy: export.Block,
		RetryMin: time.Millisecond, RetryMax: 20 * time.Millisecond,
		FlushTimeout: 20 * time.Second, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tee := export.NewTeeSink(local, ship)

	write := func(lo, hi int64) {
		t.Helper()
		if err := tee.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", lo, hi)}); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: healthy traffic, then force it durable so the cut lands
	// on a live, caught-up connection.
	write(1, 20)
	write(21, 40)
	if err := tee.Flush(); err != nil {
		t.Fatalf("phase-1 flush: %v", err)
	}

	// Phase 2: tear the link mid-frame. The next record's frame dies
	// partway; the collector sees a torn frame and resyncs on
	// reconnect, the shipper rewinds and retransmits.
	nf.CutAfter(30)
	write(41, 60)
	write(61, 80)
	if err := tee.WriteMarker(tmarker("m", 80)); err != nil {
		t.Fatal(err)
	}

	// Phase 3: full partition. Writes pile into the buffer; nothing is
	// lost (Block policy) and nothing gets through.
	nf.Partition()
	// Let a retry or two slam into the wall.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, refused, _ := nf.Stats(); refused >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no two dials refused within 10s of the partition")
		}
		time.Sleep(time.Millisecond)
	}
	for lo := int64(81); lo <= 180; lo += 20 {
		write(lo, lo+19)
	}
	if err := tee.WriteHealth(thealth(180)); err != nil {
		t.Fatal(err)
	}

	// Phase 4: heal and drain. Everything buffered during the
	// partition ships; the resume handshake deduplicates whatever the
	// torn-frame era double-sent.
	nf.Heal()
	write(181, 200)
	if err := tee.Flush(); err != nil {
		t.Fatalf("post-heal flush: %v", err)
	}
	if err := tee.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := col.Close(); err != nil {
		t.Fatalf("collector close: %v", err)
	}

	assertReplayIdentical(t, localDir, fleetDir+"/flaky")
	assertConservation(t, ship)
	st := ship.Stats()
	if st.Dropped != 0 {
		t.Fatalf("Block policy dropped %d records", st.Dropped)
	}
	if st.Buffered != 0 || st.Acked != st.Accepted {
		t.Fatalf("drain incomplete: %+v", st)
	}
	if st.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want at least the initial connect and one recovery", st.Reconnects)
	}
	// The registry view agrees with Stats (the counters the CI smoke
	// scrapes are the ones the law was proven on).
	snap := reg.Snapshot()
	rec, _ := snap.Counter("netship_records_total")
	ack, _ := snap.Counter("netship_acked_total")
	drop, _ := snap.Counter("netship_dropped_total")
	buf, _ := snap.Gauge("netship_buffered")
	if rec != ack+drop+buf {
		t.Fatalf("registry conservation violated: %d != %d + %d + %d", rec, ack, drop, buf)
	}
}

// rawRecord frames one WAL record by the documented record layout
// (type, monitor, seq range, count, payload length, payload CRC,
// payload) with an honest length and CRC — so a test can build records
// no export encoder writes.
func rawRecord(kind export.Kind, monitor string, first, last int64, count uint32, payload []byte) []byte {
	b := []byte{byte(kind)}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(monitor)))
	b = append(b, monitor...)
	b = binary.LittleEndian.AppendUint64(b, uint64(first))
	b = binary.LittleEndian.AppendUint64(b, uint64(last))
	b = binary.LittleEndian.AppendUint32(b, count)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// walRecords returns every record in dir's WAL files, header plus
// payload, in file order across rotations.
func walRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	names, err := export.WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 5 {
			t.Fatalf("%s: %d bytes, shorter than the WAL magic", name, len(b))
		}
		for b = b[5:]; len(b) > 0; {
			const fixed = 1 + 2 + 8 + 8 + 4 // type, monitor length, seq range, count
			if len(b) < 3 {
				t.Fatalf("%s: torn record header", name)
			}
			at := fixed + int(binary.LittleEndian.Uint16(b[1:3]))
			if len(b) < at+8 {
				t.Fatalf("%s: torn record header", name)
			}
			n := at + 8 + int(binary.LittleEndian.Uint32(b[at:]))
			if len(b) < n {
				t.Fatalf("%s: torn record payload", name)
			}
			out = append(out, b[:n])
			b = b[n:]
		}
	}
	return out
}

// TestCollectorRefusesMalformedRecords: record frames whose wire CRC
// is valid but whose record is not — a payload of another monitor, a
// header that misstates the count or the last seq, a non-minimal
// varint, a byte after the events, a health snapshot whose header
// horizon disagrees with its payload — each get an ERROR frame and a
// closed connection, and the origin's WAL holds exactly the valid
// records sent before them. Storing record bytes verbatim must keep
// every check decoding them applied.
func TestCollectorRefusesMalformedRecords(t *testing.T) {
	t.Parallel()
	fleetDir := t.TempDir()
	col, addr := startCollector(t, CollectorConfig{Dir: fleetDir, AckEvery: 1})
	defer col.Close()

	seg, err := export.AppendSegmentRecord(nil, export.Segment{Monitor: "m", Events: tseq("m", 1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	marker := tmarker("m", 4)
	mark, err := export.AppendRecord(nil, export.Record{Marker: &marker})
	if err != nil {
		t.Fatal(err)
	}
	valid := [][]byte{seg, mark}

	h := thealth(10)
	health, err := export.AppendRecord(nil, export.Record{Health: &h})
	if err != nil {
		t.Fatal(err)
	}
	const annotationHeader = 1 + 2 + 8 + 8 + 4 + 4 + 4 // no monitor
	healthPayload := health[annotationHeader:]
	evs := event.AppendBinary(nil, tseq("m", 5, 8))
	if !bytes.Equal(rawRecord(export.KindHealth, "", 10, 10, 0, healthPayload), health) ||
		!bytes.Equal(rawRecord(export.KindSegment, "m", 1, 4, 4, event.AppendBinary(nil, tseq("m", 1, 4))), seg) {
		t.Fatal("rawRecord diverges from the export encoders")
	}
	if evs[4] != 4 {
		t.Fatalf("count byte %#x, want 4", evs[4])
	}
	nonMinimal := append([]byte{'R', 'M', 'T', 1, 0x84, 0x00}, evs[5:]...) // count 4 padded to two bytes
	trailing := append(append([]byte(nil), evs...), 0)

	cases := []struct {
		name string
		rec  []byte
	}{
		{"foreign monitor", rawRecord(export.KindSegment, "m", 5, 8, 4, event.AppendBinary(nil, tseq("x", 5, 8)))},
		{"count off by one", rawRecord(export.KindSegment, "m", 5, 8, 5, evs)},
		{"wrong last seq", rawRecord(export.KindSegment, "m", 5, 9, 4, evs)},
		{"non-minimal varint", rawRecord(export.KindSegment, "m", 5, 8, 4, nonMinimal)},
		{"byte after the events", rawRecord(export.KindSegment, "m", 5, 8, 4, trailing)},
		{"health horizon disagrees", rawRecord(export.KindHealth, "", 11, 11, 0, healthPayload)},
	}
	for i, c := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)
		origin := fmt.Sprintf("bad-%d", i)
		if _, err := conn.Write(appendFrame(nil, appendHello(nil, origin))); err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("%s: handshake: %v", c.name, err)
		}
		if seq, err := parseWelcome(body); err != nil || seq != 0 {
			t.Fatalf("%s: welcome = %d, %v", c.name, seq, err)
		}
		var wire []byte
		for j, r := range append(valid, c.rec) {
			wire = appendRecordFrame(wire, uint64(j+1), r)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		for {
			body, err = readFrame(br, nil)
			if err != nil || len(body) == 0 || body[0] != frameAck {
				break
			}
			if seq, _ := parseAck(body); seq > uint64(len(valid)) {
				break // the malformed record was acknowledged
			}
		}
		if err != nil || body[0] != frameError {
			t.Errorf("%s: collector answered %v, %v; want an ERROR frame", c.name, body, err)
		} else if _, err := readFrame(br, nil); !errors.Is(err, io.EOF) {
			t.Errorf("%s: after the ERROR frame the read got %v, want the connection closed", c.name, err)
		}
		conn.Close()
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		got := walRecords(t, filepath.Join(fleetDir, fmt.Sprintf("bad-%d", i)))
		if !reflect.DeepEqual(got, valid) {
			t.Errorf("%s: origin WAL holds %d records, want exactly the %d valid ones sent before it", c.name, len(got), len(valid))
		}
	}
}

// TestCollectorStoresProducerBytes: a producer tees into a local
// WALSink and a NetSink, and the origin's raw records — header plus
// payload, in file order across rotations — equal the local WAL's
// byte for byte: the collector stores the producer's bytes, not a
// re-encoding of them.
func TestCollectorStoresProducerBytes(t *testing.T) {
	t.Parallel()
	fleetDir := t.TempDir()
	col, addr := startCollector(t, CollectorConfig{Dir: fleetDir, AckEvery: 3, MaxFileBytes: 700})
	defer col.Close()
	localDir := t.TempDir()
	local, err := export.NewWALSink(localDir, export.WALConfig{MaxFileBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	ship, err := NewNetSink(NetSinkConfig{Addr: addr, Origin: "verbatim", FlushTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tee := export.NewTeeSink(local, ship)

	monitors := []string{"buf", "alloc", "rw"}
	next := int64(1)
	segments := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m := monitors[i%len(monitors)]
			last := next + int64(i%4)
			if err := tee.WriteSegment(export.Segment{Monitor: m, Events: tseq(m, next, last)}); err != nil {
				t.Fatal(err)
			}
			next = last + 1
		}
	}
	segments(9)
	if err := tee.WriteMarker(tmarker("alloc", next-1)); err != nil {
		t.Fatal(err)
	}
	if err := tee.WriteHealth(thealth(next - 1)); err != nil {
		t.Fatal(err)
	}
	if err := tee.WriteAlert(originAlert("verbatim", next-1, true)); err != nil {
		t.Fatal(err)
	}
	segments(6)
	if err := tee.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := tee.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := col.Close(); err != nil {
		t.Fatalf("collector close: %v", err)
	}

	originDir := filepath.Join(fleetDir, "verbatim")
	for _, dir := range []string{localDir, originDir} {
		if names, err := export.WALFiles(dir); err != nil || len(names) < 2 {
			t.Fatalf("%s holds %d WAL files (%v), want rotations", dir, len(names), err)
		}
	}
	want, got := walRecords(t, localDir), walRecords(t, originDir)
	if len(got) != len(want) {
		t.Fatalf("origin WAL holds %d records, the local WAL %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs:\n local  %x\n origin %x", i, want[i], got[i])
		}
	}
}

// TestDropPolicyConservation: with a tiny buffer and the collector
// black-holed, the Drop policy sheds records but never loses count of
// them; after healing, the survivors replay cleanly.
func TestDropPolicyConservation(t *testing.T) {
	t.Parallel()
	fleetDir := t.TempDir()
	col, addr := startCollector(t, CollectorConfig{Dir: fleetDir, AckEvery: 1})
	defer col.Close()

	nf := faults.NewNetFault()
	nf.Partition() // down from the start
	ship, err := NewNetSink(NetSinkConfig{
		Addr: addr, Origin: "lossy", Dial: nf.Dial,
		BufferRecords: 4, Policy: export.Drop,
		RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond,
		FlushTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 12; i++ {
		lo := i*5 + 1
		if err := ship.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", lo, lo+4)}); err != nil {
			t.Fatal(err)
		}
	}
	st := ship.Stats()
	if st.Accepted != 12 || st.Dropped != 8 || st.Buffered != 4 {
		t.Fatalf("pre-heal stats = %+v, want 12 accepted, 8 dropped, 4 buffered", st)
	}
	assertConservation(t, ship)

	nf.Heal()
	if err := ship.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := ship.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	assertConservation(t, ship)
	if st := ship.Stats(); st.Acked != 4 {
		t.Fatalf("post-heal stats = %+v, want the 4 buffered records acked", st)
	}
	rep, err := export.ReadDir(fleetDir + "/lossy")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 4 {
		t.Fatalf("collector stored %d segments, want the 4 survivors", rep.Segments)
	}
}

// TestCollectorRestartResume: the collector process dies and comes
// back on the same address; the producer's resume handshake picks up
// from the persisted durable seq, and nothing is lost or duplicated
// in the replayed store.
func TestCollectorRestartResume(t *testing.T) {
	t.Parallel()
	fleetDir := t.TempDir()
	col1, err := NewCollector(CollectorConfig{Dir: fleetDir, AckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	go func() { _ = col1.Serve(l1) }()

	localDir := t.TempDir()
	local, err := export.NewWALSink(localDir, export.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ship, err := NewNetSink(NetSinkConfig{
		Addr: addr, Origin: "phoenix",
		RetryMin: time.Millisecond, RetryMax: 20 * time.Millisecond,
		FlushTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tee := export.NewTeeSink(local, ship)

	if err := tee.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", 1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Flush(); err != nil {
		t.Fatalf("flush before restart: %v", err)
	}
	if err := col1.Close(); err != nil {
		t.Fatalf("first collector close: %v", err)
	}

	// Down. The producer keeps writing into its buffer.
	if err := tee.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", 11, 20)}); err != nil {
		t.Fatal(err)
	}

	// Back, same address, same fleet root: the durable seq is read off
	// disk, so WELCOME resumes rather than restarts.
	col2, err := NewCollector(CollectorConfig{Dir: fleetDir, AckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go func() { _ = col2.Serve(l2) }()

	if err := tee.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", 21, 30)}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Flush(); err != nil {
		t.Fatalf("flush after restart: %v", err)
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	if err := col2.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplayIdentical(t, localDir, fleetDir+"/phoenix")
	assertConservation(t, ship)
}

// TestDuplicateOriginRefused: while one producer owns an origin, a
// second HELLO for it is answered with an error frame, not
// interleaved writes.
func TestDuplicateOriginRefused(t *testing.T) {
	t.Parallel()
	col, addr := startCollector(t, CollectorConfig{Dir: t.TempDir()})
	defer col.Close()
	ship, err := NewNetSink(NetSinkConfig{
		Addr: addr, Origin: "solo",
		RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond,
		FlushTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()
	if err := ship.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", 1, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := ship.Flush(); err != nil {
		t.Fatal(err) // also proves the first connection is established
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendFrame(nil, appendHello(nil, "solo"))); err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || body[0] != frameError {
		t.Fatalf("duplicate origin got frame %v, want an error frame", body)
	}
}

// TestShipStateRoundTrip: the resume-state file survives a round trip
// and degrades to zero on damage.
func TestShipStateRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if got := loadShipState(dir); got != 0 {
		t.Fatalf("missing state = %d, want 0", got)
	}
	if err := saveShipState(dir, 4217); err != nil {
		t.Fatal(err)
	}
	if got := loadShipState(dir); got != 4217 {
		t.Fatalf("state = %d, want 4217", got)
	}
	// Corrupt it: CRC catches the flip and resyncs from zero.
	name := dir + "/" + shipStateName
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[7] ^= 0xff
	if err := os.WriteFile(name, b, 0o666); err != nil {
		t.Fatal(err)
	}
	if got := loadShipState(dir); got != 0 {
		t.Fatalf("corrupt state = %d, want 0", got)
	}
}

// TestCollectorCompactsOriginsWithRetention: satellite of the
// long-horizon store — a collector armed with CompactEvery+Compact
// compacts each origin's backlog in the background, independently,
// with a retention floor. Each origin's directory must stay a valid
// export directory throughout: everything at or above the horizon
// replays byte-identically to what the producer shipped, and the
// truncation is recorded in a tombstone, per origin.
func TestCollectorCompactsOriginsWithRetention(t *testing.T) {
	t.Parallel()
	fleetDir := t.TempDir()
	reg := obs.NewRegistry()
	col, addr := startCollector(t, CollectorConfig{
		Dir:          fleetDir,
		AckEvery:     2,
		MaxFileBytes: 1, // rotate every record: a file per record, plenty to compact
		CompactEvery: 4,
		Compact: func(dir string) error {
			_, err := compact.Dir(dir, compact.Config{RetainSeq: 20, Obs: reg})
			return err
		},
		Obs: reg,
	})
	defer col.Close()

	origins := []string{"node-a", "node-b"}
	want := make(map[string]event.Seq)
	for _, origin := range origins {
		ship, err := NewNetSink(NetSinkConfig{
			Addr: addr, Origin: origin, FlushTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		next := int64(1)
		for i := 0; i < 16; i++ {
			n := next + 3
			seg := tseq("m", next, n)
			want[origin] = append(want[origin], seg...)
			if err := ship.WriteSegment(export.Segment{Monitor: "m", Events: seg}); err != nil {
				t.Fatal(err)
			}
			next = n + 1
		}
		if err := ship.WriteMarker(tmarker("m", next-1)); err != nil {
			t.Fatal(err)
		}
		if err := ship.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ship.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Compactions run on their own goroutines; Close waits for the
	// in-flight ones, and the counter, summed over the origins' sinks,
	// proves at least one ran.
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("export_compactions_total").Value() == 0 {
		t.Fatal("no background compaction ran despite CompactEvery=4 and per-record rotation")
	}

	for _, origin := range origins {
		rep, err := export.ReadDir(fleetDir + "/" + origin)
		if err != nil {
			t.Fatalf("origin %s after compaction: %v", origin, err)
		}
		h := rep.RetentionHorizon()
		if h == 0 || h > 20 {
			t.Fatalf("origin %s: retention horizon %d, want in (0, 20]", origin, h)
		}
		surviving := want[origin].SubSeq(h, 1<<62)
		got := event.AppendBinary(nil, rep.Events)
		if !bytes.Equal(got, event.AppendBinary(nil, surviving)) {
			t.Fatalf("origin %s: replay above horizon %d diverges from what was shipped (%d vs %d events)",
				origin, h, len(rep.Events), len(surviving))
		}
		if len(rep.Markers) != 1 {
			t.Fatalf("origin %s: marker lost under retention: %+v", origin, rep.Markers)
		}
	}
}

// TestCompactOriginsOncePerOrigin pins the wall-clock retention entry
// point: one pass per known origin, none for an origin whose pass is
// still in flight, failed passes counted (summed over the origins'
// sinks), and nothing after Close.
func TestCompactOriginsOncePerOrigin(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	col, err := NewCollector(CollectorConfig{Dir: t.TempDir(), NoIndex: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	origins := []string{"node-a", "node-b"}
	for _, origin := range origins {
		if _, err := col.origin(origin); err != nil {
			t.Fatal(err)
		}
	}
	unexpected := func(dir string) error {
		t.Errorf("pass started for %s", dir)
		return nil
	}

	started := make(chan string, len(origins))
	release := make(chan struct{})
	col.CompactOrigins(func(dir string) error {
		started <- filepath.Base(dir)
		<-release
		if filepath.Base(dir) == "node-b" {
			return errors.New("compaction failed")
		}
		return nil
	})
	ran := map[string]bool{}
	for range origins {
		ran[<-started] = true
	}
	if len(ran) != len(origins) {
		t.Fatalf("passes ran for %v, want one per origin %v", ran, origins)
	}
	// Both passes are blocked in flight: this tick must skip both.
	col.CompactOrigins(unexpected)
	close(release)
	// Each origin sink's Close waits for that origin's pass.
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	passes := reg.Counter("export_compactions_total")
	if got := passes.Value(); got != int64(len(origins)) {
		t.Errorf("%d passes counted, want one per origin (%d)", got, len(origins))
	}
	if got := reg.Counter("export_compact_errors_total").Value(); got != 1 {
		t.Errorf("%d failed passes counted, want node-b's 1", got)
	}

	// A launch is counted before its goroutine starts, so an unchanged
	// counter right after the call proves no pass started.
	col.CompactOrigins(unexpected)
	if got := passes.Value(); got != int64(len(origins)) {
		t.Errorf("CompactOrigins after Close launched %d passes", got-int64(len(origins)))
	}
}

// TestTrimReleasesAckedRecords: trimming the acknowledged prefix of the
// un-acked buffer must not leave record data in the slots past the new
// length — those slots would keep acked records' bytes reachable until
// a later append overwrote each one.
func TestTrimReleasesAckedRecords(t *testing.T) {
	t.Parallel()
	s := &NetSink{}
	s.cond = sync.NewCond(&s.mu)
	for seq := uint64(1); seq <= 8; seq++ {
		s.buf = append(s.buf, shipRec{seq: seq, data: []byte{byte(seq)}})
	}
	s.seq = 8
	s.mu.Lock()
	s.trimLocked(5)
	s.mu.Unlock()
	if len(s.buf) != 3 || s.buf[0].seq != 6 || s.stats.Acked != 5 {
		t.Fatalf("after trim: %d buffered from seq %d, %d acked; want 3 from seq 6, 5 acked",
			len(s.buf), s.buf[0].seq, s.stats.Acked)
	}
	for i, r := range s.buf[len(s.buf):cap(s.buf)] {
		if r.data != nil || r.seq != 0 {
			t.Fatalf("slot %d past the buffer still holds record seq %d (%d bytes)", len(s.buf)+i, r.seq, len(r.data))
		}
	}
}
