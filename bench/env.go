package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"robustmon/internal/detect"
	"robustmon/internal/export"
	"robustmon/internal/export/index"
	netexport "robustmon/internal/export/net"
	"robustmon/internal/history"
	"robustmon/internal/monitor"
)

// Configuration shared by the workloads. Every value is fixed so two
// commits are measured on identical inputs; each comment gives the
// reason for the value.
const (
	// checkInterval is the checking period T of every workload. 10 ms is
	// short enough that a run holds thousands of checkpoints and fault
	// reports, long enough that checkpoints leave most of the CPU to the
	// load.
	checkInterval = 10 * time.Millisecond
	// setupRepeats is how many times a run builds its stack to report
	// the median set-up time; a single build is at the mercy of one slow
	// fsync or page fault.
	setupRepeats = 5
	// augSliceLen is one augmented slice of the slice workloads — one
	// window of the end-to-end metrics: a second holds a hundred
	// checkpoints and over a hundred thousand calls.
	augSliceLen = time.Second
	// bareSliceLen is the bare slice before each augmented one. It only
	// feeds the bases of the ratios, which a quarter of a second of
	// uninstrumented calls — hundreds of thousands — pins well, so most
	// of the measured time goes to the augmented windows.
	bareSliceLen = 250 * time.Millisecond
)

// env is one pass of one workload: its inputs, its work directory and
// what it measured.
type env struct {
	seed    uint64
	seconds int
	// start is when the pass's first set-up began (process start for
	// the first pass of a run).
	start time.Time
	// root is the pass's work directory, inside the checkout.
	root string
	// tr is nil in the untraced pass.
	tr   *tracer
	fail *failures
	rep  *report
	// attempted counts operations, queries and injected faults.
	attempted int64
	// traceEvents is the size of trace-query's trace.
	traceEvents int
}

// rng returns a generator for one named use of the pass's seed, so
// adding a use never shifts the inputs of another.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream))
}

// mkdir creates a fresh directory inside the pass's work directory.
func (e *env) mkdir(name string) (string, error) {
	return os.MkdirTemp(e.root, name+"-")
}

func (e *env) measured() time.Duration { return time.Duration(e.seconds) * time.Second }

// recorder is what augmented monitors record into: the database, or
// its traced wrapper.
func (e *env) recorder(db *history.DB) monitor.Recorder {
	if e.tr == nil {
		return db
	}
	return &tracedRecorder{next: db, tr: e.tr}
}

// exporter starts the export pipeline over sink (Block policy, so no
// event is ever dropped) and returns it together with the view the
// detector is given: the exporter itself, or its traced wrapper.
func (e *env) exporter(sink export.Sink, cfg export.Config) (*export.Exporter, detect.TraceExporter) {
	if e.tr != nil {
		_, shipped := sink.(*netexport.NetSink)
		sink = &tracedSink{next: sink, tr: e.tr, shipped: shipped}
	}
	cfg.Policy = export.Block
	exp := export.New(sink, cfg)
	if e.tr == nil {
		return exp, exp
	}
	return exp, &tracedExporter{next: exp, tr: e.tr}
}

// walSink opens a WAL sink on dir whose sealed files are indexed as
// they seal (and, when tracing, timestamp durability).
func (e *env) walSink(dir string, cfg export.WALConfig) (*export.WALSink, error) {
	cfg.OnSeal = append(cfg.OnSeal, index.NewMaintainer(dir))
	if e.tr != nil {
		cfg.OnSeal = append(cfg.OnSeal, e.tr)
	}
	return export.NewWALSink(dir, cfg)
}

// startDetector runs the checking routine until the returned stop is
// called; stop cancels it and waits for its final checkpoint and
// exporter flush. The untraced pass runs detect.Detector.Run itself.
func (e *env) startDetector(det *detect.Detector, exp detect.TraceExporter) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if e.tr != nil {
			e.tr.detectLoop(ctx, det, exp)
		} else {
			det.Run(ctx)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// setupTimed builds a stack n times and keeps the last one. It returns
// the median build time in seconds: the first build is timed from
// e.start, later ones from the end of the previous teardown. Earlier
// stacks are torn down (and checked) as they are replaced.
func setupTimed[S any](e *env, n int, build func() (S, error), teardown func(S) error) (S, float64, error) {
	var zero S
	times := make([]float64, 0, n)
	from := e.start
	for i := 0; i < n; i++ {
		s, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(from).Seconds())
		if i == n-1 {
			return s, median(times), nil
		}
		if err := teardown(s); err != nil {
			return zero, 0, err
		}
		from = time.Now()
	}
	return zero, 0, fmt.Errorf("no set-up ran")
}

// setupCount is how many set-ups a pass times: the untraced pass
// reports the median of several, the traced pass reports no set-up
// time and builds once.
func (e *env) setupCount(untraced int) int {
	if e.tr != nil {
		return 1
	}
	return untraced
}

// heapLiveMiB is the live heap after full collections. The second
// collection empties the sync.Pool victim caches the first one filled,
// so pooled buffers do not count as live.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocatedBytes is the process's cumulative heap allocation; the
// difference across a measured phase is what the phase allocated.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// dirBytes sums the sizes of the WAL files in dir.
func dirBytes(dir string) int64 {
	names, err := export.WALFiles(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// walFilesToDecode is how many files of a WAL directory the output
// check decodes in full; the rest are checked by header scan.
const walFilesToDecode = 3

// checkWAL verifies that a WAL directory holds every one of the total
// recorded events exactly once, and reports each discrepancy as a
// failure. By header scan: record counts sum to total, each monitor's
// records cover strictly increasing, disjoint seq ranges, and together
// they span 1..total. A seeded choice of files is also decoded in full
// and each record's events compared with its header.
func checkWAL(e *env, dir string, total int64) {
	names, err := export.WALFiles(dir)
	if err != nil {
		e.fail.add(1, "wal %s: %v", dir, err)
		return
	}
	var sum int64
	minSeq, maxSeq := int64(-1), int64(0)
	last := make(map[string]int64)
	for _, name := range names {
		fs, locs, err := export.ScanFileRecords(name)
		if err != nil {
			e.fail.add(1, "scan %s: %v", filepath.Base(name), err)
			continue
		}
		if fs.Torn {
			e.fail.add(1, "%s ends in a torn record", filepath.Base(name))
		}
		for _, l := range locs {
			sum += int64(l.Count)
			if l.First > l.Last || int64(l.Count) > l.Last-l.First+1 || l.First <= last[l.Monitor] {
				e.fail.add(1, "%s: record [%d,%d]×%d of %s overlaps or disorders its monitor's trace",
					filepath.Base(name), l.First, l.Last, l.Count, l.Monitor)
			}
			last[l.Monitor] = l.Last
			if minSeq < 0 || l.First < minSeq {
				minSeq = l.First
			}
			maxSeq = max(maxSeq, l.Last)
		}
	}
	if sum != total {
		diff := sum - total
		if diff < 0 {
			diff = -diff
		}
		e.fail.add(diff, "wal holds %d events, %d were recorded", sum, total)
	}
	if total > 0 && (minSeq != 1 || maxSeq != total) {
		e.fail.add(1, "wal spans seq %d..%d, want 1..%d", minSeq, maxSeq, total)
	}
	pick := slices.Clone(names)
	e.rng(0xdec0de).Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
	for _, name := range pick[:min(walFilesToDecode, len(pick))] {
		checkWALFile(e, name)
	}
}

// checkWALFile decodes one file and compares every segment with its
// record header.
func checkWALFile(e *env, name string) {
	_, locs, err := export.ScanFileRecords(name)
	if err != nil {
		e.fail.add(1, "scan %s: %v", filepath.Base(name), err)
		return
	}
	fr, err := export.ReadWALFile(name)
	if err != nil {
		e.fail.add(1, "decode %s: %v", filepath.Base(name), err)
		return
	}
	if fr.CorruptRecords > 0 || len(fr.Segments) != len(locs) {
		e.fail.add(1, "%s: %d corrupt records, %d segments decoded of %d headers",
			filepath.Base(name), fr.CorruptRecords, len(fr.Segments), len(locs))
		return
	}
	for i, seg := range fr.Segments {
		l := locs[i]
		evs := seg.Events
		ok := seg.Monitor == l.Monitor && len(evs) == int(l.Count) && len(evs) > 0 &&
			evs[0].Seq == l.First && evs[len(evs)-1].Seq == l.Last
		for j := 1; ok && j < len(evs); j++ {
			ok = evs[j].Seq > evs[j-1].Seq && evs[j].Monitor == l.Monitor
		}
		if !ok {
			e.fail.add(1, "%s: record %d does not match its header", filepath.Base(name), i)
		}
	}
}
