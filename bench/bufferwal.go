package main

import (
	"fmt"
	"os"
	"time"

	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/detect"
	"robustmon/internal/export"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// buffer-wal is the paper's Table 1 shape: one bounded buffer — one hot
// monitor and history shard — hold-world checkpoints every T without
// batching, and a WAL export at the default rotation size, indexed as
// files seal. Large segments put most of the work on the monitor, the
// history database and replay; the exporter sees about one record per
// checkpoint.
//
// One load process sends and then receives, so the buffer never fills
// or empties and the second CPU is left to the detector, the exporter
// and the collector. Two processes sharing the monitor measured the
// scheduler instead: a call either went straight in or waited for the
// other process to be woken, and the share of each flipped with the
// machine's load, moving the median op latency between 2.0 and 3.1 µs.

const (
	// bufferCapacity is the shared buffer's size, as in the paper's
	// coordinator experiments; the load never holds more than one item.
	bufferCapacity = 16
	// warmupOps is the load buffer-wal and fanout-fleet push through the
	// bare and the augmented app before the first timed op, so lazy
	// initialisation (pools, the first WAL file, page faults) is paid in
	// set-up.
	warmupOps = 20_000
)

type bufferStack struct {
	e         *env
	dir       string
	db        *history.DB
	exp       *export.Exporter
	texp      detect.TraceExporter
	det       *detect.Detector
	bare, aug *boundedbuffer.Buffer
	rt        *proc.Runtime
}

func newBufferStack(e *env) (*bufferStack, error) {
	dir, err := e.mkdir("wal")
	if err != nil {
		return nil, err
	}
	sink, err := e.walSink(dir, export.WALConfig{})
	if err != nil {
		return nil, err
	}
	s := &bufferStack{e: e, dir: dir, db: history.New(), rt: proc.NewRuntime()}
	s.exp, s.texp = e.exporter(sink, export.Config{})
	s.aug, err = boundedbuffer.New(bufferCapacity,
		boundedbuffer.WithMonitorOptions(monitor.WithRecorder(e.recorder(s.db))))
	if err != nil {
		return nil, err
	}
	s.bare, err = boundedbuffer.New(bufferCapacity, boundedbuffer.WithName("boundedbuffer-bare"))
	if err != nil {
		return nil, err
	}
	s.det = detect.NewDefault(s.db, detect.Config{
		Interval: checkInterval,
		Exporter: s.texp,
		OnViolation: func(v rules.Violation) {
			e.fail.add(1, "fault-free run reported %v", v)
		},
	}, s.aug.Monitor())
	warmUp(e, s, budget{ops: warmupOps})
	return s, nil
}

// close stops the export pipeline, checks the WAL against the history
// database, and with remove deletes the WAL.
func (s *bufferStack) close(remove bool) {
	if err := s.exp.Close(); err != nil {
		s.e.fail.add(1, "exporter close: %v", err)
	}
	checkWAL(s.e, s.dir, s.db.Total())
	if remove {
		os.RemoveAll(s.dir)
	}
}

func (s *bufferStack) checker() (*detect.Detector, detect.TraceExporter) { return s.det, s.texp }

// load runs the load process, alternating Send and Receive, and checks
// that everything sent was received: equal sums and an empty buffer
// afterwards.
func (s *bufferStack) load(aug bool, b budget, res []*hist) int64 {
	buf := s.bare
	if aug {
		buf = s.aug
	}
	var r *hist
	if res != nil {
		r = res[0]
	}
	var ops int64
	var sent, got int
	s.rt.Spawn("sender", func(p *proc.P) {
		for v := 0; ; v++ {
			t0 := time.Now()
			err := buf.Send(p, v)
			t1 := time.Now()
			w, err2 := buf.Receive(p)
			t2 := time.Now()
			r.add(int64(t1.Sub(t0)))
			r.add(int64(t2.Sub(t1)))
			ops += 2
			sent += v
			got += w
			if err != nil || err2 != nil {
				s.e.fail.add(1, "Send/Receive: %v, %v", err, err2)
			}
			if b.spent(ops, t2) {
				return
			}
		}
	})
	s.rt.Join()
	if sent != got || buf.Len() != 0 {
		s.e.fail.add(1, "buffer lost items: sent sum %d, received sum %d, %d left", sent, got, buf.Len())
	}
	return ops
}

func runBufferWAL(e *env) error {
	s, setupS, err := setupTimed(e, e.setupCount(setupRepeats), func() (*bufferStack, error) {
		return newBufferStack(e)
	}, func(s *bufferStack) error { s.close(true); return nil })
	if err != nil {
		return fmt.Errorf("buffer-wal set-up: %w", err)
	}
	runSlices(e, s, 1, s.db.Total, budget{ops: closingOps})
	s.close(false)
	e.rep.set("setup_s", "s", setupS)
	if e.tr != nil {
		e.tr.publish(e.rep, pipelineTotals{events: s.db.Total(), bytes: dirBytes(s.dir)})
	}
	return nil
}
