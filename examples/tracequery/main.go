// Tracequery: the trace store end to end. A detector streams a
// multi-monitor run into a WAL export directory whose index the sink
// maintains as it rotates, while a segment-count trigger compacts the
// rotated backlog in the background. Afterwards the program asks the
// question the trace store exists for: "show me the window around this
// point, for this monitor" — answered by an index-backed SeekReader
// that opens only the files the window can touch, instead of decoding
// the entire directory the way a full replay must.
//
//	go run ./examples/tracequery
package main

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"robustmon"
)

const (
	nMonitors   = 6
	procsPerMon = 2
	pairsPerMon = 600
)

func main() {
	dir, err := os.MkdirTemp("", "tracequery-*")
	if err != nil {
		log.Fatalf("tracequery: %v", err)
	}
	defer os.RemoveAll(dir)

	// The full production wiring: index maintenance on rotate, and a
	// background compaction every 24 sealed files so the run bounds its
	// own on-disk footprint while it is still recording.
	maint := robustmon.NewTraceIndexMaintainer(dir)
	var compactions atomic.Int64
	sink, err := robustmon.NewWALSink(dir, robustmon.WALConfig{
		MaxFileBytes: 4 << 10,          // rotate often: a real backlog
		RotateEvery:  10 * time.Second, // idle monitors still seal segments
		OnSeal:       []robustmon.ExportSealedSink{maint},
		CompactEvery: 24,
		Compact: func(dir string) error {
			compactions.Add(1)
			_, err := robustmon.CompactExportDir(dir, robustmon.CompactionConfig{})
			return err
		},
	})
	if err != nil {
		log.Fatalf("tracequery: %v", err)
	}
	exp := robustmon.NewExporter(sink, robustmon.ExporterConfig{Policy: robustmon.ExportBlock})

	db := robustmon.NewHistory() // no WithFullTrace: the WAL is the only copy
	mons := make([]*robustmon.Monitor, nMonitors)
	for i := range mons {
		spec := robustmon.Spec{
			Name:       fmt.Sprintf("cell-%02d", i),
			Kind:       robustmon.OperationManager,
			Conditions: []string{"ready"},
			Procedures: []string{"Op"},
		}
		m, err := robustmon.NewMonitor(spec, robustmon.WithRecorder(db))
		if err != nil {
			log.Fatalf("tracequery: %v", err)
		}
		mons[i] = m
	}
	det := robustmon.NewDetectorNoFreeze(db, robustmon.DetectorConfig{
		Tmax:     time.Hour,
		Tio:      time.Hour,
		Exporter: exp,
	}, mons...)

	rt := robustmon.NewRuntime()
	for _, m := range mons {
		m := m
		for w := 0; w < procsPerMon; w++ {
			rt.Spawn("driver", func(p *robustmon.Process) {
				for i := 0; i < pairsPerMon; i++ {
					if err := m.Enter(p, "Op"); err != nil {
						return
					}
					_ = m.SignalExit(p, "Op", "ready")
					if i%40 == 39 {
						det.CheckNow() // stream segments out as the run goes
					}
				}
			})
		}
	}
	rt.Join()
	det.CheckNow()
	if err := exp.Close(); err != nil {
		log.Fatalf("tracequery: %v", err)
	}
	st := exp.Stats()
	fmt.Printf("recorded %d events in %d segments; %d background compactions\n",
		st.Events, st.Written, compactions.Load())

	// The expensive baseline: decode everything.
	t0 := time.Now()
	full, err := robustmon.ReadExportDir(dir)
	if err != nil {
		log.Fatalf("tracequery: %v", err)
	}
	fullTook := time.Since(t0)
	fmt.Printf("full replay: %d events from %d files in %v\n",
		len(full.Events), full.Files, fullTook.Round(time.Microsecond))

	// The trace-store way: a window around the middle of the run, for
	// one monitor — the "what led up to this violation" query.
	mid := full.Events[len(full.Events)/2].Seq
	r, err := robustmon.OpenTraceReader(dir)
	if err != nil {
		log.Fatalf("tracequery: %v", err)
	}
	t0 = time.Now()
	win, err := r.ReplayRange(mid-200, mid+200, "cell-03")
	if err != nil {
		log.Fatalf("tracequery: %v", err)
	}
	seekTook := time.Since(t0)
	qs := r.LastStats()
	fmt.Printf("windowed query (seq %d..%d, cell-03): %d events, opened %d of %d files (%d skipped) in %v\n",
		mid-200, mid+200, len(win.Events), qs.Opened, qs.FilesTotal, qs.Skipped,
		seekTook.Round(time.Microsecond))
	if seekTook > 0 {
		fmt.Printf("the index made the window %.1fx cheaper than the full replay\n",
			float64(fullTook)/float64(seekTook))
	}

	// The index survives scrutiny: rebuild it from the files and verify
	// the header chains.
	idx, err := robustmon.RebuildTraceIndex(dir)
	if err != nil {
		log.Fatalf("tracequery: %v", err)
	}
	if errs := idx.Verify(dir); len(errs) != 0 {
		log.Fatalf("tracequery: index disagrees with files: %v", errs)
	}
	fmt.Printf("index verified: %d files, %d events indexed\n", len(idx.Files), idx.Events())
}
