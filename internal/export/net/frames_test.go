package netexport

import (
	"bufio"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"robustmon/internal/export"
)

// TestShipAllocsPerEvent: in steady state a NetSink shipping to a
// Collector allocates next to nothing per event. Every frame comes
// from the frame pool and goes back once acknowledged, and the serve
// loop, the ack reader and the collector reuse their buffers, so the
// bound is a tenth of what encoding each frame into fresh memory
// costs per event.
//
// Not parallel, on one P and with GC off, as the export package's pool
// tests: the frame pool is package-global, a collection empties it,
// and a Put parks in the putting P's private slot, which a Get on
// another P cannot see.
func TestShipAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })

	col, addr := startCollector(t, CollectorConfig{Dir: t.TempDir()})
	defer col.Close()
	s, err := NewNetSink(NetSinkConfig{Addr: addr, Origin: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 256-event segments, as a batched checkpoint drains them.
	const events, perFlush = 256, 64
	segs := make([]export.Segment, 8)
	for i := range segs {
		from := int64(i*events + 1)
		segs[i] = export.Segment{Monitor: "m", Events: tseq("m", from, from+events-1)}
	}
	frame, err := export.AppendSegmentRecord(nil, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	ship := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < perFlush; i++ {
				if err := s.WriteSegment(segs[i%len(segs)]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ship(4) // warm-up: fill the pools and grow the reused buffers
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ship(rounds)
	runtime.ReadMemStats(&after)

	shipped := float64(rounds * perFlush * events)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / shipped
	fresh := float64(len(frame)) / events
	t.Logf("shipping allocated %.3f B per event; a fresh frame is %.1f", perEvent, fresh)
	if perEvent > fresh/10 {
		t.Fatalf("shipping allocated %.2f B per event; want at most %.2f, a tenth of a fresh %d-byte frame per %d events",
			perEvent, fresh/10, len(frame), events)
	}
	if st := s.Stats(); st.Acked != st.Accepted {
		t.Fatalf("after the flushes: %d accepted, %d acked", st.Accepted, st.Acked)
	}
}

// TestAckAheadKeepsFramesIntact: a collector that acknowledges far
// ahead of what it has read makes the sink trim records whose frames
// the serve loop still has to copy onto the wire, while the producer
// keeps encoding new records into pooled frames. Those frames must not
// go back to the pool before the copy is done, or a later record's
// bytes go out under an earlier record's ship seq, torn or whole: every
// RECORD frame the collector reads must decode, to the segment shipped
// under its seq. The collector reads nothing until the producer has
// written half its records, so the serve loop stalls in a write with a
// batch in hand when the first ack trims it. Run it with -race
// -count=10.
func TestAckAheadKeepsFramesIntact(t *testing.T) {
	t.Parallel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Segment i, shipped under seq i+1, holds events i*events+1 onward:
	// each ~20 KB frame reads differently.
	const segments, events = 1000, 1024
	var read, readAcked int // RECORD frames read; of them, already acked
	start := make(chan struct{})
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := readFrame(br, nil); err != nil {
			t.Errorf("read HELLO: %v", err)
			return
		}
		if _, err := conn.Write(appendFrame(nil, appendWelcome(nil, 0))); err != nil {
			t.Errorf("write WELCOME: %v", err)
			return
		}
		<-start
		var buf []byte
		var acked uint64
		for {
			body, err := readFrame(br, buf)
			if err != nil {
				return // the sink closed the connection
			}
			buf = body
			if body[0] != frameRecord {
				continue // FLUSH
			}
			seq, b, err := parseRecordFrame(body)
			if err != nil {
				t.Errorf("RECORD frame: %v", err)
				return
			}
			rec, err := export.DecodeRecord(b)
			if err != nil {
				t.Errorf("record %d arrived damaged: %v", seq, err)
				return
			}
			if rec.Segment == nil {
				t.Errorf("record %d arrived as a %s record", seq, rec.Info().Kind)
				return
			}
			if want := int64(seq-1)*events + 1; rec.Segment.First() != want {
				t.Errorf("record %d arrived holding another record's events: first seq %d, want %d",
					seq, rec.Segment.First(), want)
				return
			}
			read++
			if seq <= acked {
				readAcked++
			}
			acked = max(acked, seq+segments)
			if _, err := conn.Write(appendFrame(nil, appendAck(nil, acked))); err != nil {
				return
			}
		}
	}()

	s, err := NewNetSink(NetSinkConfig{Addr: l.Addr().String(), Origin: "ahead"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segments; i++ {
		if i == segments/2 {
			close(start)
		}
		from := int64(i*events + 1)
		if err := s.WriteSegment(export.Segment{Monitor: "m", Events: tseq("m", from, from+events-1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Records acked before they were sent are never sent, so the
	// collector reads only some; Close ships what is left unsent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-collectorDone
	if read == 0 {
		t.Fatal("the collector read no record")
	}
	t.Logf("the collector read %d of %d records, %d of them already acked", read, segments, readAcked)
}
