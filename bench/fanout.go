package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"robustmon/internal/apps/kvstore"
	"robustmon/internal/detect"
	"robustmon/internal/export"
	netexport "robustmon/internal/export/net"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// fanout-fleet is many small monitors shipping off-box: 64 key-value
// store monitors, one driver doing Put+Get round-robin over all of them
// in a seeded order, per-monitor checkpoints with batched replay, the obs registry
// with health snapshots and two quiet threshold rules, and the exporter
// shipping through a network sink to an in-process collector on
// loopback (one connection). Thousands of small records per second go
// through framing and fsync-then-ack, so per-checkpoint fixed costs and
// obs dominate while replay per monitor is small — the export layer
// used through the network rather than a local file. A single driver
// leaves the second CPU to the detector, the exporter, the network sink
// and the collector, which otherwise queue behind the load for a CPU.

const (
	// fleetMonitors is the fleet size: enough monitors that per-monitor
	// checkpoint costs add up.
	fleetMonitors = 64
	// fleetBatch is the batched-replay size of the fleet detector.
	fleetBatch = 256
	// fleetHealthEvery is the health-snapshot cadence; each snapshot
	// also evaluates the threshold rules.
	fleetHealthEvery = 100 * time.Millisecond
	// fleetOrigin names the producer on the collector.
	fleetOrigin = "bench"
)

// fleetRules never fire on a healthy run (a checkpoint p99 above an
// hour, any dropped event). They make the detector evaluate its rule
// engine at every health snapshot — a cost the fleet shape carries —
// without raising violations; a firing rule is reported as a failure.
var fleetRules = []obsrules.Rule{
	{Name: "slow-checkpoints", Metric: "detect_check_ns", Quantile: 0.99, Ceiling: float64(time.Hour)},
	{Name: "export-drops", Metric: `export_dropped_events_total{reason="full"}`, Rate: true, Ceiling: 0},
}

// fleetValues are the values the driver stores, preformatted so the
// load loop does not allocate.
var fleetValues = [...]string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}

type fleetStack struct {
	e         *env
	root      string
	db        *history.DB
	col       *netexport.Collector
	serveDone chan error
	ns        *netexport.NetSink
	exp       *export.Exporter
	texp      detect.TraceExporter
	det       *detect.Detector
	bare, aug []*kvstore.Store
	// order is the driver's seeded visiting order of the monitors.
	order    []int
	rt       *proc.Runtime
	stopAcks func()
}

func newFleetStack(e *env) (*fleetStack, error) {
	root, err := e.mkdir("fleet")
	if err != nil {
		return nil, err
	}
	s := &fleetStack{e: e, root: root, rt: proc.NewRuntime(), serveDone: make(chan error, 1)}
	s.col, err = netexport.NewCollector(netexport.CollectorConfig{Dir: root})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { s.serveDone <- s.col.Serve(lis) }()
	reg := obs.NewRegistry()
	s.ns, err = netexport.NewNetSink(netexport.NetSinkConfig{
		Addr:   lis.Addr().String(),
		Origin: fleetOrigin,
		Policy: export.Block,
		Obs:    reg,
	})
	if err != nil {
		return nil, err
	}
	s.exp, s.texp = e.exporter(s.ns, export.Config{Obs: reg})
	s.db = history.New(history.WithObs(reg))
	mons := make([]*monitor.Monitor, fleetMonitors)
	for i := 0; i < fleetMonitors; i++ {
		aug, err := kvstore.New(kvstore.WithName(fmt.Sprintf("kv-%02d", i)),
			kvstore.WithMonitorOptions(monitor.WithRecorder(e.recorder(s.db))))
		if err != nil {
			return nil, err
		}
		bare, err := kvstore.New(kvstore.WithName(fmt.Sprintf("kv-bare-%02d", i)))
		if err != nil {
			return nil, err
		}
		s.aug, s.bare = append(s.aug, aug), append(s.bare, bare)
		mons[i] = aug.Monitor()
	}
	s.det = detect.New(s.db, detect.Config{
		Interval:    checkInterval,
		HoldWorld:   false,
		BatchSize:   fleetBatch,
		Obs:         reg,
		HealthEvery: fleetHealthEvery,
		Rules:       fleetRules,
		Exporter:    s.texp,
		OnViolation: func(v rules.Violation) {
			e.fail.add(1, "fault-free run reported %v", v)
		},
	}, mons...)
	s.order = e.rng(0xf1ee7).Perm(fleetMonitors)
	if e.tr != nil {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.tr.pollAcks(ctx, s.ns)
		}()
		s.stopAcks = func() { cancel(); <-done }
	}
	warmUp(e, s, budget{ops: warmupOps})
	return s, nil
}

// close stops the exporter (its network sink flushes and waits for the
// collector's acknowledgement), checks that every record was accepted
// and acknowledged, stops the collector and checks its copy of the
// trace against the history database.
func (s *fleetStack) close(remove bool) {
	e := s.e
	if err := s.exp.Close(); err != nil {
		e.fail.add(1, "exporter close: %v", err)
	}
	if s.stopAcks != nil {
		e.tr.markAcked(s.ns)
		s.stopAcks()
	}
	if st := s.ns.Stats(); st.Accepted != st.Acked || st.Dropped != 0 {
		e.fail.add(max(1, st.Accepted-st.Acked+st.Dropped),
			"network sink accepted %d records, acked %d, dropped %d", st.Accepted, st.Acked, st.Dropped)
	}
	if err := s.col.Close(); err != nil {
		e.fail.add(1, "collector close: %v", err)
	}
	if err := <-s.serveDone; err != nil {
		e.fail.add(1, "collector serve: %v", err)
	}
	checkWAL(e, s.originDir(), s.db.Total())
	if remove {
		os.RemoveAll(s.root)
	}
}

func (s *fleetStack) originDir() string { return filepath.Join(s.root, fleetOrigin) }

func (s *fleetStack) checker() (*detect.Detector, detect.TraceExporter) { return s.det, s.texp }

// load runs the driver against the bare or the augmented stores. Every
// Get must return the value just Put.
func (s *fleetStack) load(aug bool, b budget, res []*hist) int64 {
	stores := s.bare
	if aug {
		stores = s.aug
	}
	var r *hist
	if res != nil {
		r = res[0]
	}
	var ops int64
	s.rt.Spawn("driver", func(p *proc.P) {
		const key = "key"
		for i := 0; ; i++ {
			st := stores[s.order[i%len(s.order)]]
			val := fleetValues[i%len(fleetValues)]
			t0 := time.Now()
			err := st.Put(p, key, val)
			t1 := time.Now()
			got, ok, gerr := st.Get(p, key)
			t2 := time.Now()
			r.add(int64(t1.Sub(t0)))
			r.add(int64(t2.Sub(t1)))
			ops += 2
			if err != nil || gerr != nil || !ok || got != val {
				s.e.fail.add(1, "Put/Get %q on %s: got %q %v, errors %v %v",
					key, st.Monitor().Name(), got, ok, err, gerr)
			}
			if b.spent(ops, t2) {
				return
			}
		}
	})
	s.rt.Join()
	return ops
}

func runFanout(e *env) error {
	s, setupS, err := setupTimed(e, e.setupCount(setupRepeats), func() (*fleetStack, error) {
		return newFleetStack(e)
	}, func(s *fleetStack) error { s.close(true); return nil })
	if err != nil {
		return fmt.Errorf("fanout-fleet set-up: %w", err)
	}
	runSlices(e, s, 1, s.db.Total, budget{ops: closingOps})
	s.close(false)
	e.rep.set("setup_s", "s", setupS)
	if e.tr != nil {
		e.tr.publish(e.rep, pipelineTotals{events: s.db.Total(), bytes: dirBytes(s.originDir())})
	}
	return nil
}
