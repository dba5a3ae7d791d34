package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustmon/internal/apps/allocator"
	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/detect"
	"robustmon/internal/export"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// alloc-faults is the workload where both detection phases fire. In
// each augmented slice two lanes run side by side under hold-world
// checkpoints every T with a WAL export:
//
//   - the periodic lane fills a bounded buffer, arms a SendOverflow
//     injector, makes the overflowing Send, waits for the checkpoint to
//     report ST-7a, and drains the buffer;
//   - the realtime lane drives an allocator behind the realtime
//     calling-order checker with short sessions: each a fresh process
//     doing a seeded number of Acquire/Release cycles and then one
//     Release without an Acquire, which the checker reports as FD-7b
//     inside the call.
//
// A bare slice runs the realtime lane's sessions, without the faulty
// Release, on an allocator with no recorder; the periodic lane carries
// under a thousandth of the calls and has no bare counterpart.
//
// Sessions keep each process's calling history short: the realtime
// checker keeps a process's whole history and copies it into the
// violation message, so one long-lived process would make every report
// slower and the heap larger as the run goes on.

const (
	// faultBufferCapacity is small so a fill-and-overflow cycle is a
	// handful of calls and the lane is dominated by waiting for reports.
	faultBufferCapacity = 4
	// allocUnits lets a session hold its unit without ever blocking.
	allocUnits = 2
	// sessionMin and sessionMax bound a session's correct cycles.
	sessionMin, sessionMax = 100, 1000
	// reportTimeout is how long an injected fault may go unreported
	// before it counts as missed: 50 checking intervals.
	reportTimeout = 50 * checkInterval
	// faultWarmupCycles is how many fault cycles (periodic lane) and
	// sessions (realtime lane) each warm-up slice runs during set-up.
	faultWarmupCycles = 3
	faultBufferName   = "faultbuffer"
	allocName         = "allocator"
)

// probe pairs an injected fault with its report: the injecting lane
// arms it, the detector's callback reports to it.
type probe struct {
	mu    sync.Mutex
	armed bool
	got   chan time.Time
	fail  *failures
}

func newProbe(fail *failures) *probe {
	return &probe{got: make(chan time.Time, 1), fail: fail}
}

func (p *probe) arm() {
	p.mu.Lock()
	p.armed = true
	p.mu.Unlock()
}

// report delivers a report instant; a report with no fault outstanding
// is a failure (a duplicate or a report of nothing injected).
func (p *probe) report(at time.Time, v rules.Violation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.armed {
		p.fail.add(1, "report with no injected fault outstanding: %v", v)
		return
	}
	p.armed = false
	p.got <- at
}

// wait returns the report instant, or false when none came in time.
func (p *probe) wait(timeout time.Duration) (time.Time, bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case at := <-p.got:
		return at, true
	case <-timer.C:
	}
	p.mu.Lock()
	armed := p.armed
	p.armed = false
	p.mu.Unlock()
	if !armed {
		// The report landed between the timeout and the lock.
		return <-p.got, true
	}
	return time.Time{}, false
}

type allocStack struct {
	e    *env
	dir  string
	db   *history.DB
	exp  *export.Exporter
	texp detect.TraceExporter
	det  *detect.Detector
	rt   *proc.Runtime
	buf  *boundedbuffer.Buffer
	inj  *faults.Injector
	// alloc is behind the realtime checker; bareAlloc, the bare slices'
	// app, has no recorder.
	alloc, bareAlloc *allocator.Allocator
	// sessions draws session lengths for bare and augmented slices alike.
	sessions *rand.Rand

	periodic *probe
	// rtPending and rtAt belong to the running session's goroutine: the
	// realtime checker calls back inside that session's Release.
	rtPending bool
	rtAt      time.Time
	rtReports atomic.Int64
	echoes    atomic.Int64
	// next is the periodic lane's next buffer value, for its FIFO check.
	next int

	// Detection latencies and injected faults of the measured slices.
	periodicDet, realtimeDet *hist
	periodicFaults, rtFaults int64
}

func newAllocStack(e *env) (*allocStack, error) {
	dir, err := e.mkdir("wal")
	if err != nil {
		return nil, err
	}
	sink, err := e.walSink(dir, export.WALConfig{})
	if err != nil {
		return nil, err
	}
	s := &allocStack{
		e: e, dir: dir, db: history.New(), rt: proc.NewRuntime(), periodic: newProbe(e.fail),
		sessions:    e.rng(0x5e55),
		periodicDet: new(hist),
		realtimeDet: new(hist),
	}
	s.exp, s.texp = e.exporter(sink, export.Config{})
	rec := e.recorder(s.db)
	s.inj = faults.NewInjector(faults.SendOverflow)
	s.buf, err = boundedbuffer.New(faultBufferCapacity, boundedbuffer.WithName(faultBufferName),
		boundedbuffer.WithInjector(s.inj), boundedbuffer.WithMonitorOptions(monitor.WithRecorder(rec)))
	if err != nil {
		return nil, err
	}
	rtc, err := detect.NewRealTime(rec, []monitor.Spec{allocator.Spec(allocName)}, s.onRealtime)
	if err != nil {
		return nil, err
	}
	var allocRec monitor.Recorder = rtc
	if e.tr != nil {
		allocRec = &tracedRealTime{next: rtc, tr: e.tr, reports: &s.rtReports}
	}
	s.alloc, err = allocator.New(allocUnits, allocator.WithName(allocName),
		allocator.WithMonitorOptions(monitor.WithRecorder(allocRec)))
	if err != nil {
		return nil, err
	}
	s.bareAlloc, err = allocator.New(allocUnits, allocator.WithName(allocName+"-bare"))
	if err != nil {
		return nil, err
	}
	s.det = detect.NewDefault(s.db, detect.Config{
		Interval:    checkInterval,
		Exporter:    s.texp,
		OnViolation: s.onPeriodic,
	}, s.buf.Monitor(), s.alloc.Monitor())
	warmUp(e, s, budget{ops: faultWarmupCycles})
	return s, nil
}

// onPeriodic is the detector's callback: ST-7a on the buffer answers
// the outstanding overflow; ST-8b on the allocator is the checkpoint's
// echo of a release the realtime phase already reported.
func (s *allocStack) onPeriodic(v rules.Violation) {
	switch {
	case v.Rule == rules.ST7a && v.Monitor == faultBufferName && v.Phase == "periodic":
		s.periodic.report(time.Now(), v)
	case v.Rule == rules.ST8b && v.Monitor == allocName && v.Phase == "periodic":
		s.echoes.Add(1)
	default:
		s.e.fail.add(1, "unexplained violation %v", v)
	}
}

// onRealtime is the realtime checker's callback, called inside the
// faulty Release on the session's goroutine.
func (s *allocStack) onRealtime(v rules.Violation) {
	s.rtReports.Add(1)
	if v.Rule == rules.FD7b && v.Monitor == allocName && v.Phase == "realtime" && s.rtPending {
		s.rtPending = false
		s.rtAt = time.Now()
		return
	}
	s.e.fail.add(1, "unexplained realtime violation %v", v)
}

func (s *allocStack) close(remove bool) {
	if err := s.exp.Close(); err != nil {
		s.e.fail.add(1, "exporter close: %v", err)
	}
	checkWAL(s.e, s.dir, s.db.Total())
	if remove {
		os.RemoveAll(s.dir)
	}
}

func (s *allocStack) checker() (*detect.Detector, detect.TraceExporter) { return s.det, s.texp }

// laneStats is what one lane did.
type laneStats struct {
	ops, injected int64
}

// load runs one slice's lanes until each has spent b, which counts fault
// cycles in the periodic lane and sessions in the realtime lane. res[0]
// times the periodic lane's calls and res[1] the realtime lane's; a nil
// res (warm-up, closing) also leaves detection latencies and fault
// counts out of the measurement.
func (s *allocStack) load(aug bool, b budget, res []*hist) int64 {
	var pRes, rRes, pDet, rDet *hist
	if res != nil {
		pRes, rRes, pDet, rDet = res[0], res[1], s.periodicDet, s.realtimeDet
	}
	if !aug {
		return s.realtimeLane(s.bareAlloc, false, b, rRes, nil).ops
	}
	var periodic laneStats
	done := make(chan struct{})
	s.rt.Spawn("filler", func(p *proc.P) {
		defer close(done)
		periodic = s.periodicLane(p, b, pRes, pDet)
	})
	realtime := s.realtimeLane(s.alloc, true, b, rRes, rDet)
	<-done
	if res != nil {
		s.periodicFaults += periodic.injected
		s.rtFaults += realtime.injected
	}
	return periodic.ops + realtime.ops
}

// periodicLane repeats fill, overflow, wait for the report, drain.
func (s *allocStack) periodicLane(p *proc.P, b budget, r, det *hist) laneStats {
	var st laneStats
	send := func() time.Time {
		t0 := time.Now()
		if err := s.buf.Send(p, s.next); err != nil {
			s.e.fail.add(1, "Send: %v", err)
		}
		r.add(int64(time.Since(t0)))
		st.ops++
		s.next++
		return t0
	}
	want := s.next
	for {
		for i := 0; i < faultBufferCapacity; i++ {
			send()
		}
		s.periodic.arm()
		s.inj.Arm()
		sent := send()
		st.injected++
		if s.buf.Len() != faultBufferCapacity+1 {
			s.e.fail.add(1, "injected overflow did not happen (buffer holds %d)", s.buf.Len())
		}
		if at, ok := s.periodic.wait(reportTimeout); ok {
			det.add(int64(at.Sub(sent)))
		} else {
			s.e.fail.add(1, "overflow not reported within %v", reportTimeout)
		}
		var t1 time.Time
		for i := 0; i <= faultBufferCapacity; i++ {
			t0 := time.Now()
			v, err := s.buf.Receive(p)
			t1 = time.Now()
			r.add(int64(t1.Sub(t0)))
			st.ops++
			if err != nil || v != want {
				s.e.fail.add(1, "Receive = %d, %v; want %d", v, err, want)
			}
			want++
		}
		if b.spent(st.injected, t1) {
			return st
		}
	}
}

// realtimeLane runs sessions back to back on alloc, each a fresh
// process; with inject, each session ends with a Release without an
// Acquire, which the realtime checker must report inside the call.
func (s *allocStack) realtimeLane(alloc *allocator.Allocator, inject bool, b budget, r, det *hist) laneStats {
	var st laneStats
	for sessions := int64(1); ; sessions++ {
		cycles := sessionMin + s.sessions.IntN(sessionMax-sessionMin+1)
		done := make(chan struct{})
		var end time.Time
		s.rt.Spawn("user", func(p *proc.P) {
			defer close(done)
			for c := 0; c < cycles; c++ {
				t0 := time.Now()
				err := alloc.Acquire(p)
				t1 := time.Now()
				err2 := alloc.Release(p)
				end = time.Now()
				r.add(int64(t1.Sub(t0)))
				r.add(int64(end.Sub(t1)))
				st.ops += 2
				if err != nil || err2 != nil {
					s.e.fail.add(1, "allocator cycle: %v, %v", err, err2)
				}
			}
			if !inject {
				return
			}
			s.rtPending = true
			t0 := time.Now()
			err := alloc.Release(p)
			end = time.Now()
			r.add(int64(end.Sub(t0)))
			st.ops++
			st.injected++
			if err != nil {
				s.e.fail.add(1, "faulty Release: %v", err)
			}
			if s.rtPending {
				s.rtPending = false
				s.e.fail.add(1, "release without acquire not reported")
			} else {
				det.add(int64(s.rtAt.Sub(t0)))
			}
		})
		<-done
		if b.spent(sessions, end) {
			return st
		}
	}
}

func runAllocFaults(e *env) error {
	s, setupS, err := setupTimed(e, e.setupCount(setupRepeats), func() (*allocStack, error) {
		return newAllocStack(e)
	}, func(s *allocStack) error { s.close(true); return nil })
	if err != nil {
		return fmt.Errorf("alloc-faults set-up: %w", err)
	}
	// The periodic lane needs the checking routine to run, so there is no
	// closing load; the live heap is the realtime checker's matchers.
	s.echoes.Store(0)
	runSlices(e, s, 2, s.db.Total, budget{})
	e.attempted += s.periodicFaults + s.rtFaults
	r := e.rep
	r.setQuantile("detect_latency_periodic_p50_ms", "ms", s.periodicDet, 0.50, 1e6)
	r.setQuantile("detect_latency_periodic_p99_ms", "ms", s.periodicDet, 0.99, 1e6)
	r.setQuantile("detect_latency_realtime_p50_us", "us", s.realtimeDet, 0.50, 1e3)
	r.setQuantile("detect_latency_realtime_p99_us", "us", s.realtimeDet, 0.99, 1e3)
	r.set("faults_injected_periodic", "count", float64(s.periodicFaults))
	r.set("faults_injected_realtime", "count", float64(s.rtFaults))
	r.set("detect.echoes", "count", float64(s.echoes.Load()))
	s.close(false)
	r.set("setup_s", "s", setupS)
	if e.tr != nil {
		e.tr.publish(r, pipelineTotals{events: s.db.Total(), bytes: dirBytes(s.dir)})
	}
	return nil
}
