package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"robustmon/internal/apps/kvstore"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/index"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
	"robustmon/internal/proc"
	"robustmon/internal/rules"
)

// trace-query is the read side of the export layer. Set-up records a
// trace in the fanout shape — 64 key-value monitors, one driver doing
// Put+Get — through the detector, the exporter and a WAL sink with
// small files, indexed as they seal. The measured phase is one client
// in a closed loop, each query the cost of one `montrace dump -from
// -to`: open the directory through its index and replay a seeded 0.25%
// window, three queries in four filtered to one monitor. The client runs
// the same list of queries over and over; each pass over it is one
// window, so every window does the same work. No write-path code runs
// while queries are timed.

const (
	// queryTraceEvents is the trace size: large enough that a query
	// prunes most files through the index, small enough to record
	// within a few seconds.
	queryTraceEvents = 2_000_000
	// queryMaxFileBytes keeps files small so the index has many files to
	// prune and a window opens only a few of them.
	queryMaxFileBytes = 256 << 10
	// queryWindowDiv makes each query window 1/400th of the trace.
	queryWindowDiv = 400
	// queryListLen is how many distinct seeded queries one pass — one
	// window — runs; their expected answers are computed in set-up. A
	// thousand is the fewest that leave ten above a window's 99th
	// percentile; they take about seven seconds.
	queryListLen = 1000
	// queryAllEvery makes one query in four cover every monitor — the
	// cost of merging all 64 monitors' records — and the rest one
	// monitor, the per-monitor pruning the index exists for.
	queryAllEvery = 4
	// queryDraws bounds the redraws of a window that opens the wrong
	// number of files; a trace too small to have such windows (the smoke
	// test's) keeps the last draw.
	queryDraws = 1000
	// querySetups is fewer than setupRepeats because each set-up
	// records the whole trace.
	querySetups = 3
	// queryWarmup is how many queries each set-up runs untimed, so the
	// trace files are in the page cache before the first timed query.
	queryWarmup = 16
	// queryRoundCalls is how many calls the driver makes between two
	// checkpoints while recording: 5000 calls of 2 events each is 10,000
	// events, what T = 10 ms covers at the roughly 1M events/s this shape
	// records at. Checkpointing at fixed call counts rather than on a
	// timer gives the trace the same layout on every run, and so gives
	// each query the same cost.
	queryRoundCalls = 5000
)

type query struct {
	from, to int64
	mon      string // "" = every monitor
	want     int
}

type queryStack struct {
	dir     string
	total   int64
	queries []query
}

// recordTrace records the trace and computes the expected answer of
// every query from the segments the checkpoints drained.
func recordTrace(e *env) (*queryStack, error) {
	dir, err := e.mkdir("trace")
	if err != nil {
		return nil, err
	}
	sink, err := e.walSink(dir, export.WALConfig{MaxFileBytes: queryMaxFileBytes})
	if err != nil {
		return nil, err
	}
	db := history.New()
	exp, texp := e.exporter(sink, export.Config{})
	names := make([]string, fleetMonitors)
	monIdx := make(map[string]uint8, fleetMonitors)
	stores := make([]*kvstore.Store, fleetMonitors)
	mons := make([]*monitor.Monitor, fleetMonitors)
	for i := range stores {
		names[i] = fmt.Sprintf("kv-%02d", i)
		monIdx[names[i]] = uint8(i)
		stores[i], err = kvstore.New(kvstore.WithName(names[i]),
			kvstore.WithMonitorOptions(monitor.WithRecorder(e.recorder(db))))
		if err != nil {
			return nil, err
		}
		mons[i] = stores[i].Monitor()
	}
	det := detect.NewDefault(db, detect.Config{
		Exporter: texp,
		OnViolation: func(v rules.Violation) {
			e.fail.add(1, "fault-free run reported %v", v)
		},
	}, mons...)
	// owner[seq] is the monitor of event seq, as drained. Drains of
	// different monitors may run concurrently; they write disjoint seqs.
	owner := make([]uint8, e.traceEvents+1)
	db.AddDrainTee(func(mon string, seg event.Seq) {
		idx := monIdx[mon]
		for _, ev := range seg {
			if ev.Seq < int64(len(owner)) {
				owner[ev.Seq] = idx
			}
		}
	})
	rt := proc.NewRuntime()
	rng := e.rng(0x7ace)
	order := rng.Perm(fleetMonitors)
	began := time.Now()
	for done := 0; done < e.traceEvents/2; done += queryRoundCalls {
		rt.Spawn("driver", func(p *proc.P) {
			const key = "key"
			for i := done / 2; i < (done+queryRoundCalls)/2; i++ {
				st := stores[order[i%len(order)]]
				if err := st.Put(p, key, "v"); err != nil {
					e.fail.add(1, "Put: %v", err)
				}
				if _, _, err := st.Get(p, key); err != nil {
					e.fail.add(1, "Get: %v", err)
				}
			}
		})
		rt.Join()
		if e.tr != nil {
			e.tr.checkpoint(det)
		} else {
			det.CheckNow()
		}
	}
	if e.tr != nil {
		e.tr.detecting(began)
	}
	if err := exp.Close(); err != nil {
		e.fail.add(1, "exporter close: %v", err)
	}
	s := &queryStack{dir: dir, total: db.Total()}
	if s.total != int64(e.traceEvents) {
		e.fail.add(1, "recorded %d events, want %d", s.total, e.traceEvents)
	}
	checkWAL(e, dir, s.total)
	if err := s.planQueries(rng, names, owner); err != nil {
		return nil, err
	}
	for i := 0; i < queryWarmup; i++ {
		s.run(e, s.queries[i], nil)
	}
	return s, nil
}

// planQueries draws the query list. It is stratified by the number of
// files a query opens, which sets most of its cost: one query in
// queryAllEvery covers every monitor and opens exactly two files, the
// others cover one monitor and open exactly one. Every seed's list then
// costs about the same, and the median and the 99th percentile each
// fall inside one class instead of between two, where the share of each
// class would move them. A window is redrawn until it opens its class's
// files, at most queryDraws times.
func (s *queryStack) planQueries(rng *rand.Rand, names []string, owner []uint8) error {
	idx, err := index.Load(s.dir)
	if err != nil {
		return err
	}
	opens := func(q query) int {
		var mons map[string]bool
		if q.mon != "" {
			mons = map[string]bool{q.mon: true}
		}
		n := 0
		for _, fs := range idx.Files {
			if fs.Covers(q.from, q.to, mons) {
				n++
			}
		}
		return n
	}
	width := s.total / queryWindowDiv
	for i := 0; i < queryListLen; i++ {
		all := i%queryAllEvery == 0
		files := 1
		if all {
			files = 2
		}
		var q query
		var m int
		for d := 0; d < queryDraws; d++ {
			q = query{from: 1 + rng.Int64N(s.total-width+1)}
			q.to = q.from + width - 1
			if !all {
				m = rng.IntN(fleetMonitors)
				q.mon = names[m]
			}
			if opens(q) == files {
				break
			}
		}
		q.want = int(width)
		if !all {
			q.want = 0
			for _, o := range owner[q.from : q.to+1] {
				if o == uint8(m) {
					q.want++
				}
			}
		}
		s.queries = append(s.queries, q)
	}
	return nil
}

// run answers one query and checks the answer; it returns the time the
// two calls took.
func (s *queryStack) run(e *env, q query, tr *tracer) (open, replay time.Duration) {
	var mons []string
	if q.mon != "" {
		mons = []string{q.mon}
	}
	t0 := time.Now()
	sr, err := index.OpenDir(s.dir)
	t1 := time.Now()
	if err != nil {
		e.fail.add(1, "open %s: %v", s.dir, err)
		return t1.Sub(t0), 0
	}
	rep, err := sr.ReplayRange(q.from, q.to, mons...)
	t2 := time.Now()
	switch {
	case err != nil:
		e.fail.add(1, "query [%d,%d] %q: %v", q.from, q.to, q.mon, err)
	case len(rep.Events) != q.want:
		e.fail.add(1, "query [%d,%d] %q returned %d events, want %d", q.from, q.to, q.mon, len(rep.Events), q.want)
	case q.want > 0 && (rep.Events[0].Seq < q.from || rep.Events[len(rep.Events)-1].Seq > q.to):
		e.fail.add(1, "query [%d,%d] %q returned events outside its window", q.from, q.to, q.mon)
	}
	if tr != nil && err == nil {
		tr.query(t1.Sub(t0), t2.Sub(t1), sr.LastStats().Opened, len(rep.Events))
	}
	return t1.Sub(t0), t2.Sub(t1)
}

func runTraceQuery(e *env) error {
	s, setupS, err := setupTimed(e, e.setupCount(querySetups), func() (*queryStack, error) {
		return recordTrace(e)
	}, func(s *queryStack) error { return os.RemoveAll(s.dir) })
	if err != nil {
		return fmt.Errorf("trace-query set-up: %w", err)
	}
	// One window per whole pass over the query list. The pass under way
	// at the end of the measured time is cut short and left out of the
	// windows, unless no pass finished.
	w := &windows{lanes: 1}
	a0 := allocatedBytes()
	var queries int64
	deadline := time.Now().Add(e.measured())
	for over := false; !over; {
		k := w.grow()
		t0 := time.Now()
		var n int64
		for _, q := range s.queries {
			open, replay := s.run(e, q, e.tr)
			w.res[k][0].add(int64(open + replay))
			n++
			if over = time.Now().After(deadline); over {
				break
			}
		}
		w.done(k, sliceRun{ops: n, wall: time.Since(t0)})
		queries += n
		if over && k > 0 && n < int64(len(s.queries)) {
			w.drop()
		}
	}
	e.attempted += queries
	e.rep.set("alloc_bytes_per_op", "B/op", perOp(allocatedBytes()-a0, queries))
	r := e.rep
	w.publish(r)
	r.set("heap_live_mb", "MiB", heapLiveMiB())
	r.set("setup_s", "s", setupS)
	if e.tr != nil {
		e.tr.publish(r, pipelineTotals{events: s.total, bytes: dirBytes(s.dir)})
	}
	return nil
}
