package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"robustmon/internal/apps/boundedbuffer"
	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/export"
	"robustmon/internal/export/compact"
	"robustmon/internal/export/index"
	"robustmon/internal/export/net"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/mdl"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/proc"
	"robustmon/internal/report"
	"robustmon/internal/rules"
	"robustmon/internal/tracestat"
	"robustmon/internal/verify"
)

const demoCapacity = 2

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	switch os.Args[1] {
	case "record":
		return record(os.Args[2:])
	case "check":
		return check(os.Args[2:])
	case "dump":
		return dump(os.Args[2:])
	case "stats":
		return stats(os.Args[2:])
	case "index":
		return indexCmd(os.Args[2:])
	case "compact":
		return compactCmd(os.Args[2:])
	case "help", "-h", "-help", "--help":
		fmt.Fprint(os.Stdout, usageText)
		return 0
	default:
		usage()
		return 2
	}
}

func stats(args []string) int {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "trace file to analyse")
	rates := fs.Bool("rates", false, "render the health timeline as per-interval deltas and rates instead of cumulative counters")
	var win window
	win.addFlags(fs)
	_ = fs.Parse(args)
	if *in == "" {
		usage()
		return 2
	}
	rc := forEachInput(*in, func(path string) int { return statsOne(path, win, *rates) })
	if origins := fleetOrigins(*in); origins != nil {
		if frc := fleetStats(*in, origins, win, *rates); frc > rc {
			rc = frc
		}
	}
	return rc
}

func statsOne(in string, win window, rates bool) int {
	ld, err := loadWindowed(in, win)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	fmt.Print(tracestat.Compute(ld.trace).String())
	if tb := newestTombstone(ld.tombs); tb != nil {
		fmt.Printf("retention: truncated below seq %d (%d events in %d files dropped)\n",
			tb.Horizon, tb.Events, tb.Files)
	}
	if rates {
		renderHealthRates(ld.healths)
	} else {
		renderHealthTimeline(ld.healths)
	}
	renderAlertTimeline(ld.alerts)
	return 0
}

// newestTombstone picks the live retention tombstone (the one with the
// highest horizon; compaction folds passes together, so a healthy
// store has at most one). Nil when the store was never truncated.
func newestTombstone(tombs []export.Tombstone) *export.Tombstone {
	var tb *export.Tombstone
	for i := range tombs {
		if tb == nil || tombs[i].Horizon > tb.Horizon {
			tb = &tombs[i]
		}
	}
	return tb
}

// fleetOrigins reports the origin subdirectories of a fleet root — a
// directory a collector (moncollect) filled: it holds no *.wal files
// of its own, but at least one immediate subdirectory does. nil means
// path is not a fleet root (a flat file, an ordinary export
// directory, or anything else). os.ReadDir's sorted order keeps the
// per-origin output stable.
func fleetOrigins(path string) []string {
	info, err := os.Stat(path)
	if err != nil || !info.IsDir() {
		return nil
	}
	if own, _ := filepath.Glob(filepath.Join(path, "*.wal")); len(own) > 0 {
		return nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil
	}
	var origins []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if wals, _ := filepath.Glob(filepath.Join(path, e.Name(), "*.wal")); len(wals) > 0 {
			origins = append(origins, e.Name())
		}
	}
	return origins
}

// forEachInput runs fn once per input: over a fleet root it iterates
// the origin subdirectories, a heading per origin, and returns the
// worst exit code; anything else runs fn on the path itself. Origins
// are never merged — every origin numbers its events independently,
// so a combined trace would interleave unrelated sequence spaces.
func forEachInput(path string, fn func(string) int) int {
	origins := fleetOrigins(path)
	if origins == nil {
		return fn(path)
	}
	fmt.Printf("fleet root %s: %d origins\n", path, len(origins))
	worst := 0
	for i, o := range origins {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== origin %s ==\n", o)
		if rc := fn(filepath.Join(path, o)); rc > worst {
			worst = rc
		}
	}
	return worst
}

// renderHealthTimeline prints the run's health snapshots (periodic
// obs-registry captures the detector streamed into the WAL) as a
// timeline: one row per snapshot at its sequence horizon, with the
// well-known pipeline metrics pulled out as columns. Snapshots outside
// the -from/-to window were already filtered (and their files never
// opened) by the trace-store index.
func renderHealthTimeline(healths []obs.HealthRecord) {
	if len(healths) == 0 {
		return
	}
	sort.SliceStable(healths, func(i, j int) bool { return healths[i].Seq < healths[j].Seq })
	fmt.Printf("\nhealth timeline: %d snapshots\n", len(healths))
	fmt.Printf("%-20s  %9s  %8s  %6s  %9s  %8s  %6s  %11s\n",
		"at", "seq", "appends", "checks", "viols", "exported", "queue", "check p99")
	counter := func(s obs.Snapshot, name string) string {
		if v, ok := s.Counter(name); ok {
			return fmt.Sprint(v)
		}
		return "-"
	}
	for _, h := range healths {
		queue := "-"
		if v, ok := h.Metrics.Gauge("export_queue_depth"); ok {
			queue = fmt.Sprint(v)
		}
		p99 := "-"
		if hist, ok := h.Metrics.Histogram("detect_check_ns"); ok && hist.Count > 0 {
			p99 = time.Duration(hist.Quantile(0.99)).Round(time.Microsecond).String()
		}
		fmt.Printf("%-20s  %9d  %8s  %6s  %9s  %8s  %6s  %11s\n",
			h.At.UTC().Format("2006-01-02T15:04:05Z"), h.Seq,
			counter(h.Metrics, "history_append_total"),
			counter(h.Metrics, "detect_checks_total"),
			counter(h.Metrics, "detect_violations_total"),
			counter(h.Metrics, "export_events_total"),
			queue, p99)
	}
}

// renderHealthRates prints the health timeline as per-interval deltas
// (obs.Snapshot.Delta between consecutive snapshots) with an
// appends-per-second rate and the checkpoint-latency p99 of each
// interval alone — the shape that makes a slowdown visible as a dip
// in one row instead of a bend in a cumulative curve.
func renderHealthRates(healths []obs.HealthRecord) {
	if len(healths) < 2 {
		if len(healths) == 1 {
			fmt.Printf("\nhealth timeline: 1 snapshot (need 2 for -rates; rerun without it)\n")
		}
		return
	}
	sort.SliceStable(healths, func(i, j int) bool { return healths[i].Seq < healths[j].Seq })
	fmt.Printf("\nhealth timeline (rates): %d snapshots, %d intervals\n", len(healths), len(healths)-1)
	fmt.Printf("%-20s  %9s  %9s  %7s  %6s  %9s  %9s  %11s\n",
		"at", "seq", "Δappends", "Δchecks", "Δviols", "Δexported", "append/s", "check p99")
	counter := func(s obs.Snapshot, name string) string {
		if v, ok := s.Counter(name); ok {
			return fmt.Sprint(v)
		}
		return "-"
	}
	for i := 1; i < len(healths); i++ {
		prev, cur := healths[i-1], healths[i]
		d := cur.Metrics.Delta(prev.Metrics)
		rate := "-"
		if secs := cur.At.Sub(prev.At).Seconds(); secs > 0 {
			if appends, ok := d.Counter("history_append_total"); ok {
				rate = fmt.Sprintf("%.1f", float64(appends)/secs)
			}
		}
		p99 := "-"
		if hist, ok := d.Histogram("detect_check_ns"); ok && hist.Count > 0 {
			p99 = time.Duration(hist.Quantile(0.99)).Round(time.Microsecond).String()
		}
		fmt.Printf("%-20s  %9d  %9s  %7s  %6s  %9s  %9s  %11s\n",
			cur.At.UTC().Format("2006-01-02T15:04:05Z"), cur.Seq,
			counter(d, "history_append_total"),
			counter(d, "detect_checks_total"),
			counter(d, "detect_violations_total"),
			counter(d, "export_events_total"),
			rate, p99)
	}
}

// renderAlertTimeline prints the store's threshold alerts — the
// pipeline's own degradation episodes, recorded when a self-watching
// rule fired or cleared — in horizon order.
func renderAlertTimeline(alerts []obsrules.Alert) {
	if len(alerts) == 0 {
		return
	}
	sort.SliceStable(alerts, func(i, j int) bool { return alerts[i].Seq < alerts[j].Seq })
	fired := 0
	for _, a := range alerts {
		if a.Firing {
			fired++
		}
	}
	fmt.Printf("\npipeline alerts: %d (%d fired, %d cleared)\n", len(alerts), fired, len(alerts)-fired)
	for _, a := range alerts {
		origin := ""
		if a.Origin != "" {
			origin = "  [" + a.Origin + "]"
		}
		fmt.Printf("  %-20s  %9d  %s%s\n",
			a.At.UTC().Format("2006-01-02T15:04:05Z"), a.Seq, a.String(), origin)
	}
}

// fleetStats renders the merged cross-origin view of a fleet root: one
// timeline of every origin's health snapshots in wall-clock order (an
// origin column tells them apart — sequence spaces are per-origin and
// never comparable), and one merged alert list, the collector's
// _fleet staleness alerts alongside every producer's own. With rates,
// each row deltas against the same origin's previous snapshot.
func fleetStats(root string, origins []string, win window, rates bool) int {
	type row struct {
		origin string
		h      obs.HealthRecord
	}
	var rows []row
	var alerts []obsrules.Alert
	for _, o := range origins {
		ld, err := loadWindowed(filepath.Join(root, o), win)
		if err != nil {
			fmt.Fprintf(os.Stderr, "montrace: fleet timeline: %s: %v\n", o, err)
			return 1
		}
		for _, h := range ld.healths {
			rows = append(rows, row{o, h})
		}
		for _, a := range ld.alerts {
			if a.Origin == "" {
				a.Origin = o
			}
			alerts = append(alerts, a)
		}
	}
	if len(rows) == 0 && len(alerts) == 0 {
		return 0
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if !rows[i].h.At.Equal(rows[j].h.At) {
			return rows[i].h.At.Before(rows[j].h.At)
		}
		return rows[i].origin < rows[j].origin
	})
	fmt.Printf("\n== fleet timeline ==\n%d snapshots across %d origins, %d alerts\n",
		len(rows), len(origins), len(alerts))
	counter := func(s obs.Snapshot, name string) string {
		if v, ok := s.Counter(name); ok {
			return fmt.Sprint(v)
		}
		return "-"
	}
	if rates {
		fmt.Printf("%-20s  %-12s  %9s  %9s  %7s  %6s  %9s\n",
			"at", "origin", "seq", "Δappends", "Δchecks", "Δviols", "append/s")
		prev := make(map[string]obs.HealthRecord, len(origins))
		for _, r := range rows {
			p, ok := prev[r.origin]
			prev[r.origin] = r.h
			if !ok {
				continue // an origin's first snapshot anchors its deltas
			}
			d := r.h.Metrics.Delta(p.Metrics)
			rate := "-"
			if secs := r.h.At.Sub(p.At).Seconds(); secs > 0 {
				if appends, ok := d.Counter("history_append_total"); ok {
					rate = fmt.Sprintf("%.1f", float64(appends)/secs)
				}
			}
			fmt.Printf("%-20s  %-12s  %9d  %9s  %7s  %6s  %9s\n",
				r.h.At.UTC().Format("2006-01-02T15:04:05Z"), r.origin, r.h.Seq,
				counter(d, "history_append_total"),
				counter(d, "detect_checks_total"),
				counter(d, "detect_violations_total"),
				rate)
		}
	} else {
		fmt.Printf("%-20s  %-12s  %9s  %8s  %6s  %9s  %8s\n",
			"at", "origin", "seq", "appends", "checks", "viols", "exported")
		for _, r := range rows {
			fmt.Printf("%-20s  %-12s  %9d  %8s  %6s  %9s  %8s\n",
				r.h.At.UTC().Format("2006-01-02T15:04:05Z"), r.origin, r.h.Seq,
				counter(r.h.Metrics, "history_append_total"),
				counter(r.h.Metrics, "detect_checks_total"),
				counter(r.h.Metrics, "detect_violations_total"),
				counter(r.h.Metrics, "export_events_total"))
		}
	}
	if len(alerts) > 0 {
		fmt.Println("fleet alerts:")
	}
	sort.SliceStable(alerts, func(i, j int) bool { return alerts[i].At.Before(alerts[j].At) })
	for _, a := range alerts {
		fmt.Printf("  %-20s  %-12s  %s\n",
			a.At.UTC().Format("2006-01-02T15:04:05Z"), a.Origin, a.String())
	}
	return 0
}

// usageText is the full help text (montrace help); the golden test in
// main_test.go pins it so the documented surface cannot drift silently.
const usageText = `usage:
  montrace record  -out <file> | -outdir <dir> | -ship <addr> [-origin <name>]
                   [-faulty] [-items N]
  montrace check   -in  <file|dir> [-spec decls.mdl] [-tmax 10s] [-tio 10s] [-tlimit 10s]
                   [-from N] [-to N] [-monitor a,b]
  montrace dump    -in  <file|dir> [-original] [-from N] [-to N] [-monitor a,b]
  montrace stats   -in  <file|dir> [-rates] [-from N] [-to N] [-monitor a,b]
  montrace index   -in  <dir> [-verify]
  montrace compact -in  <dir> [-keep N] [-drop-reset] [-max-bytes N]
                   [-retain-seq N] [-retain-age D]
  montrace help

inputs and outputs:
  A <file> ending in .bin uses the compact binary trace codec; any
  other file is JSON Lines. A <dir> is a segmented WAL export
  directory (internal/export): numbered *.wal files of CRC-protected
  records, as written by a streaming recorder. Reading a directory
  merges every record back into the global event order and recovers
  from a crash-truncated tail of the newest file. With record -outdir
  no full trace is ever held in memory — a detector streams each
  drained checkpoint segment through the async exporter into the WAL.

recovery markers:
  An export directory may contain recovery markers: records written
  when a shard-local online reset discarded a faulty monitor's
  buffered, never-checked events. dump renders each marker at its
  horizon position; check prints a note per marker, because
  violations on the reset monitor at or below the marker's horizon
  can be artefacts of the deliberate trace gap rather than faults in
  the monitored program.

health timeline:
  An export directory may also contain health snapshots: periodic
  captures of the run's self-observability metrics (robustmon's obs
  registry, emitted by a detector configured with HealthEvery).
  stats renders them as a timeline — one row per snapshot at its
  sequence horizon, with append/check/violation/export counters, the
  exporter queue depth and the checkpoint-latency p99 — windowed by
  -from/-to through the trace-store index like everything else.
  stats -rates renders the same timeline as per-interval deltas with
  an appends-per-second rate and each interval's own latency p99,
  the shape that shows a slowdown as a dip in one row. Snapshots are
  per-process records, so -monitor does not filter them. Compaction
  preserves them byte-identically.

pipeline alerts (threshold rules):
  A detector configured with threshold rules (DetectorConfig.Rules)
  watches its own registry at the health cadence: a rule breaching
  its ceiling for long enough fires, raises a synthetic
  meta-violation (rule META, phase meta) through the ordinary
  violation path, optionally triggers a shard-local reset, and lands
  an alert record in the WAL. stats lists the store's alerts after
  the health timeline, dump interleaves "ALERT at seq H" lines at
  their horizons, and check prints a note per alert — a trace
  checked while the pipeline itself was degraded deserves less
  confidence than one checked clean.

fleet mode (ship, collector, fleet roots):
  record -ship streams the records a WAL directory would hold to a
  moncollect collector over TCP instead — at-least-once delivery
  behind a resume handshake, with replay on the collector
  byte-identical and exactly-once. -origin names the producer; the
  collector lands every origin in its own subdirectory of its fleet
  root, each a plain export directory. -ship composes with -outdir
  (the trace is teed to both). dump, check and stats detect a fleet
  root — a directory with no *.wal files of its own whose immediate
  subdirectories hold them — and run once per origin under a
  heading, reporting the worst exit code. Origins are never merged:
  each numbers its events independently. stats over a fleet root
  additionally renders the merged fleet timeline: every origin's
  health snapshots in wall-clock order under an origin column
  (per-origin deltas and rates with -rates), then every origin's
  alerts — including the per-origin staleness alerts a collector's
  fleet timer (moncollect -fleet-every) lands under _fleet.

trace store (windowing, index, compact):
  -from/-to restrict dump, check and stats to a sequence-number window and
  -monitor to a comma-separated monitor set. Over an export directory
  the window is answered through the trace-store index (wal.index):
  only the segment files whose indexed seq ranges intersect the
  window are opened; everything else is skipped. index rebuilds that
  index from the segment files (v1 and v2 alike) — or, with -verify,
  checks the existing one against the files (sizes and record-header
  chains). compact streams the rotated segment files through a
  per-monitor bounded-memory merge into dense records, preserving
  markers at their horizons; -keep N protects the N newest files
  (default 1 — the active segment of a live recorder), -drop-reset
  additionally discards events at or below each reset horizon
  (reported, never silent). Violations that pair across a window's
  edges can be artefacts of the cut; check prints the window it used.

retention (tombstones):
  compact -retain-seq N (a sequence floor) and -retain-age D (a
  file-age floor) drop whole segment files below the floor instead of
  merging them, bounding the store in bytes. The drop is never
  silent: a tombstone record lands in the store recording the
  retention horizon — every event at or above it is still present —
  and the cumulative files/records/events dropped, per monitor. dump
  renders the tombstone ahead of the surviving events, check notes
  that violations pairing against the missing prefix are retention
  artefacts, stats prints the truncation, and a -from/-to window that
  precedes the horizon reports "dropped by retention" instead of
  silently returning less.

exit codes: 0 clean, 1 error, 2 usage, 3 faults found (check)
`

func usage() {
	fmt.Fprint(os.Stderr, usageText)
}

// indexCmd rebuilds (default) or verifies an export directory's
// trace-store index.
func indexCmd(args []string) int {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	in := fs.String("in", "", "export directory to index")
	verifyIdx := fs.Bool("verify", false, "verify the existing index against the segment files instead of rebuilding")
	_ = fs.Parse(args)
	if *in == "" {
		usage()
		return 2
	}
	if *verifyIdx {
		idx, err := index.Load(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
			return 1
		}
		if errs := idx.Verify(*in); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "montrace: %v\n", e)
			}
			fmt.Printf("index DISAGREES with %d of %d files\n", len(errs), len(idx.Files))
			return 1
		}
		fmt.Printf("index verified: %d files, %d events\n", len(idx.Files), idx.Events())
		return 0
	}
	idx, err := index.Rebuild(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	if err := idx.Write(*in); err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	fmt.Printf("indexed %d files, %d events\n", len(idx.Files), idx.Events())
	for _, f := range idx.Files {
		mons := make([]string, 0, len(f.Monitors))
		for _, mr := range f.Monitors {
			mons = append(mons, mr.Monitor)
		}
		markers := 0
		for _, a := range f.Annotations {
			if a.Kind == export.KindMarker {
				markers++
			}
		}
		torn := ""
		if f.Torn {
			torn = "  (torn tail)"
		}
		fmt.Printf("  %s  v%d  seq %d..%d  %d events  %d markers  [%s]%s\n",
			f.Name, f.Version, f.MinSeq, f.MaxSeq, f.Events, markers, strings.Join(mons, ","), torn)
	}
	return 0
}

// compactCmd merges an export directory's rotated segment files.
func compactCmd(args []string) int {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	in := fs.String("in", "", "export directory to compact")
	keep := fs.Int("keep", 1, "newest files to leave untouched (use 0 only when no recorder is live)")
	dropReset := fs.Bool("drop-reset", false, "also drop events at or below each monitor's reset horizon (the superseded pre-reset life); the drop is reported")
	maxBytes := fs.Int64("max-bytes", 0, "output file rotation threshold (0 = default)")
	retainSeq := fs.Int64("retain-seq", 0, "retention floor: drop whole files below this sequence number behind a tombstone (0 = keep everything)")
	retainAge := fs.Duration("retain-age", 0, "drop whole files older than this (by mtime) behind a tombstone (0 = keep everything)")
	_ = fs.Parse(args)
	if *in == "" {
		usage()
		return 2
	}
	keepNewest := *keep
	if keepNewest == 0 {
		// The CLI's "-keep 0" means compact everything; the library
		// spells that opt-in as a negative (its zero value is the safe
		// default of 1).
		keepNewest = -1
	}
	cfg := compact.Config{
		KeepNewest:     keepNewest,
		DropBelowReset: *dropReset,
		MaxFileBytes:   *maxBytes,
		RetainSeq:      *retainSeq,
	}
	if *retainAge > 0 {
		cfg.RetainBefore = time.Now().Add(-*retainAge)
	}
	res, err := compact.Dir(*in, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	fmt.Println(res)
	return 0
}

func record(args []string) int {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "trace.jsonl", "output trace file (.bin = binary)")
	outdir := fs.String("outdir", "", "stream the trace into a WAL export directory instead of a single file (no full trace is kept in memory)")
	ship := fs.String("ship", "", "stream the trace to a fleet collector (moncollect) at this address; composes with -outdir")
	origin := fs.String("origin", "montrace", "origin name for -ship: the collector's per-producer subdirectory and metric label")
	faulty := fs.Bool("faulty", false, "inject a send-overflow fault into the workload")
	items := fs.Int("items", 50, "items to transfer through the buffer")
	_ = fs.Parse(args)

	// Single-file mode keeps the full trace and serializes it at the
	// end; -outdir and -ship keep nothing: a detector checkpoint drains
	// the segments and the exporter streams them to the WAL, the
	// collector, or (teed) both as the run goes.
	streaming := *outdir != "" || *ship != ""
	var dbOpts []history.Option
	if !streaming {
		dbOpts = append(dbOpts, history.WithFullTrace())
	}
	db := history.New(dbOpts...)
	clk := clock.NewVirtual(time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC))
	opts := []boundedbuffer.Option{
		boundedbuffer.WithMonitorOptions(monitor.WithRecorder(db), monitor.WithClock(clk)),
	}
	var inj *faults.Injector
	if *faulty {
		inj = faults.NewInjector(faults.SendOverflow)
		opts = append(opts, boundedbuffer.WithInjector(inj))
	}
	buf, err := boundedbuffer.New(demoCapacity, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	var exp *export.Exporter
	var det *detect.Detector
	var netSink *netexport.NetSink
	if streaming {
		var sinks []export.Sink
		if *outdir != "" {
			wal, err := export.NewWALSink(*outdir, export.WALConfig{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
				return 1
			}
			sinks = append(sinks, wal)
		}
		if *ship != "" {
			ns, err := netexport.NewNetSink(netexport.NetSinkConfig{Addr: *ship, Origin: *origin})
			if err != nil {
				fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
				return 1
			}
			netSink = ns
			sinks = append(sinks, ns)
		}
		sink := sinks[0]
		if len(sinks) > 1 {
			sink = export.NewTeeSink(sinks...)
		}
		exp = export.New(sink, export.Config{Policy: export.Block})
		// The detector exists to drain checkpoints into the exporter;
		// its violations (if any, under -faulty) are the check
		// subcommand's business, not record's.
		det = detect.New(db, detect.Config{
			Clock:     clk,
			HoldWorld: true,
			Exporter:  exp,
		}, buf.Monitor())
	}
	rt := proc.NewRuntime()
	if *faulty {
		// Fill the buffer, then arm so the next send overflows.
		rt.Spawn("prefill", func(p *proc.P) {
			for i := 0; i < demoCapacity; i++ {
				_ = buf.Send(p, i)
			}
		})
		rt.Join()
		inj.Arm()
		rt.Spawn("overflower", func(p *proc.P) { _ = buf.Send(p, 99) })
		rt.Join()
	}
	// The consumer must drain everything the producer sends plus any
	// items left over from the faulty phase, so totals balance and both
	// processes terminate.
	toConsume := *items + buf.Len()
	rt.Spawn("producer", func(p *proc.P) {
		for i := 0; i < *items; i++ {
			if err := buf.Send(p, i); err != nil {
				return
			}
			if det != nil && i%8 == 7 {
				// Streaming mode: periodic checkpoints push the segments
				// recorded so far through the exporter, so the WAL grows
				// as the run goes instead of in one final burst.
				det.CheckNow()
			}
		}
	})
	rt.Spawn("consumer", func(p *proc.P) {
		for i := 0; i < toConsume; i++ {
			if _, err := buf.Receive(p); err != nil {
				return
			}
		}
	})
	rt.Join()

	if streaming {
		// Final checkpoint drains every remaining segment through the
		// exporter; mid-run violations are deliberately ignored here.
		// Close flushes the sink chain — for a NetSink that blocks
		// until the collector has acknowledged everything durable.
		det.CheckNow()
		if err := exp.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
			return 1
		}
		st := exp.Stats()
		if *outdir != "" {
			fmt.Printf("recorded %d events to %s in %d segments (faulty=%v)\n",
				st.Events, *outdir, st.Written, *faulty)
		}
		if netSink != nil {
			ss := netSink.Stats()
			fmt.Printf("shipped %d records to %s as origin %q (%d acked, %d dropped, faulty=%v)\n",
				ss.Accepted, *ship, *origin, ss.Acked, ss.Dropped, *faulty)
		}
		return 0
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	defer f.Close()
	trace := db.Full()
	if strings.HasSuffix(*out, ".bin") {
		err = event.WriteBinary(f, trace)
	} else {
		err = event.WriteJSON(f, trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	fmt.Printf("recorded %d events to %s (faulty=%v)\n", len(trace), *out, *faulty)
	return 0
}

// window carries the -from/-to/-monitor flags shared by dump and
// check.
type window struct {
	from, to int64
	monitors string
}

// addFlags registers the windowing flags on a subcommand's flag set.
func (w *window) addFlags(fs *flag.FlagSet) {
	fs.Int64Var(&w.from, "from", 0, "lowest sequence number to include (0 = from the start)")
	fs.Int64Var(&w.to, "to", 0, "highest sequence number to include (0 = to the end)")
	fs.StringVar(&w.monitors, "monitor", "", "comma-separated monitors to include (empty = all)")
}

// active reports whether any windowing was requested.
func (w window) active() bool { return w.from > 0 || w.to > 0 || w.monitors != "" }

// names returns the monitor filter as a slice (nil = all).
func (w window) names() []string {
	if w.monitors == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(w.monitors, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// loaded is everything a reading subcommand gets back from a trace
// input: the events plus the side records that only exist in export
// directories (all nil for flat files).
type loaded struct {
	trace   event.Seq
	markers []history.RecoveryMarker
	healths []obs.HealthRecord
	tombs   []export.Tombstone
	alerts  []obsrules.Alert
}

// loadWindowed reads a trace applying the window. An export directory
// is answered through the trace-store SeekReader — only the files the
// index admits are opened, and the pruning is reported on stderr; a
// flat file is filtered after loading (there is nothing to prune).
// Health snapshots and threshold alerts window on their seq horizon
// but are per-process records, so the -monitor filter does not apply
// to them.
func loadWindowed(path string, w window) (loaded, error) {
	info, err := os.Stat(path)
	if err == nil && info.IsDir() && w.active() {
		r, err := index.OpenDir(path)
		if err != nil {
			return loaded{}, err
		}
		rep, err := r.ReplayRange(w.from, w.to, w.names()...)
		if err != nil {
			return loaded{}, err
		}
		st := r.LastStats()
		fmt.Fprintf(os.Stderr, "montrace: window opened %d of %d files (%d skipped via index, %d unindexed)\n",
			st.Opened, st.FilesTotal, st.Skipped, st.Unindexed)
		warnReplay(rep)
		if h := rep.RetentionHorizon(); h > 0 && w.to > 0 && w.to < h {
			fmt.Fprintf(os.Stderr, "montrace: the window precedes the retention horizon %d: the requested range was dropped by retention, not absent from the run\n", h)
		}
		return loaded{rep.Events, rep.Markers, rep.Healths, rep.Tombstones, rep.Alerts}, nil
	}
	ld, err := load(path)
	if err != nil || !w.active() {
		return ld, err
	}
	from, to := w.from, w.to
	if from <= 0 {
		from = 1
	}
	if to <= 0 {
		to = math.MaxInt64
	}
	ld.trace = ld.trace.SubSeq(from, to)
	keptHealths := ld.healths[:0]
	for _, h := range ld.healths {
		if h.Seq <= to && (h.Seq >= from || from <= 1) {
			keptHealths = append(keptHealths, h)
		}
	}
	ld.healths = keptHealths
	keptAlerts := ld.alerts[:0]
	for _, a := range ld.alerts {
		if a.Seq <= to && (a.Seq >= from || from <= 1) {
			keptAlerts = append(keptAlerts, a)
		}
	}
	ld.alerts = keptAlerts
	if names := w.names(); names != nil {
		keep := make(map[string]bool, len(names))
		for _, n := range names {
			keep[n] = true
		}
		filtered := make(event.Seq, 0, len(ld.trace))
		for _, e := range ld.trace {
			if keep[e.Monitor] {
				filtered = append(filtered, e)
			}
		}
		ld.trace = filtered
		kept := ld.markers[:0]
		for _, m := range ld.markers {
			if keep[m.Monitor] {
				kept = append(kept, m)
			}
		}
		ld.markers = kept
	}
	return ld, nil
}

// warnReplay surfaces a replay's damage accounting on stderr.
func warnReplay(rep *export.Replay) {
	if rep.Recovered {
		last := int64(0)
		if n := len(rep.Events); n > 0 {
			last = rep.Events[n-1].Seq
		}
		fmt.Fprintf(os.Stderr, "montrace: %s: torn tail recovered, trace ends at seq %d\n",
			rep.TruncatedFile, last)
	}
	if rep.CorruptRecords > 0 {
		fmt.Fprintf(os.Stderr, "montrace: %d corrupt records skipped (their events are missing from the trace)\n",
			rep.CorruptRecords)
	}
	if rep.DuplicateEvents > 0 {
		fmt.Fprintf(os.Stderr, "montrace: %d duplicate events collapsed (interrupted compaction leftovers; run montrace compact)\n",
			rep.DuplicateEvents)
	}
	if h := rep.RetentionHorizon(); h > 0 {
		fmt.Fprintf(os.Stderr, "montrace: store truncated by retention below seq %d (events below that horizon were dropped by compaction, not lost)\n", h)
	}
}

// load reads a trace from a file or an export directory. Recovery
// markers, health snapshots, retention tombstones and threshold
// alerts only exist in export directories; for flat files those
// slices are always nil.
func load(path string) (loaded, error) {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		rep, err := export.ReadDir(path)
		if err != nil {
			return loaded{}, err
		}
		warnReplay(rep)
		return loaded{rep.Events, rep.Markers, rep.Healths, rep.Tombstones, rep.Alerts}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return loaded{}, err
	}
	defer f.Close()
	var trace event.Seq
	if strings.HasSuffix(path, ".bin") {
		trace, err = event.ReadBinary(f)
	} else {
		trace, err = event.ReadJSON(f)
	}
	return loaded{trace: trace}, err
}

func check(args []string) int {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	in := fs.String("in", "", "trace file to check")
	specFile := fs.String("spec", "", "monitor declaration file (mdl syntax); default: the demo buffer spec")
	tmax := fs.Duration("tmax", 10*time.Second, "Tmax (0 disables)")
	tio := fs.Duration("tio", 10*time.Second, "Tio (0 disables)")
	tlimit := fs.Duration("tlimit", 10*time.Second, "Tlimit (0 disables)")
	var win window
	win.addFlags(fs)
	_ = fs.Parse(args)
	if *in == "" {
		usage()
		return 2
	}
	return forEachInput(*in, func(path string) int {
		return checkOne(path, *specFile, *tmax, *tio, *tlimit, win)
	})
}

func checkOne(in, specFile string, tmax, tio, tlimit time.Duration, win window) int {
	ld, err := loadWindowed(in, win)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	trace, markers := ld.trace, ld.markers
	if win.active() && len(trace) > 0 {
		fmt.Printf("note: checking the window seq %d..%d; calling-order or pairing violations at the window edges may be artefacts of the cut, not program faults\n",
			trace[0].Seq, trace[len(trace)-1].Seq)
	}
	if tb := newestTombstone(ld.tombs); tb != nil {
		fmt.Printf("note: the store was truncated by retention below seq %d (%d events dropped); pairing violations against the missing prefix are retention artefacts, not program faults\n",
			tb.Horizon, tb.Events)
	}
	for _, mk := range markers {
		fmt.Printf("note: monitor %q was reset online at seq %d (rule %s, %d unchecked events discarded); violations on it at or below that horizon may be reset artefacts, not program faults\n",
			mk.Monitor, mk.Horizon, mk.Rule, mk.Dropped)
	}
	// The pipeline's own degradation episodes sit next to the program's
	// faults: a trace checked while the detection pipeline was breaching
	// its thresholds deserves less confidence than one checked clean.
	for _, a := range ld.alerts {
		fmt.Printf("note: pipeline alert at seq %d: %s — detection itself was degraded around this horizon, so treat nearby results with care\n",
			a.Seq, a)
	}
	specs := []monitor.Spec{boundedbuffer.Spec("boundedbuffer", demoCapacity)}
	if specFile != "" {
		src, err := os.ReadFile(specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
			return 1
		}
		specs, err = mdl.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
			return 1
		}
	}
	results, err := verify.Trace(trace, verify.Options{
		Specs:  specs,
		Tmax:   tmax,
		Tio:    tio,
		Tlimit: tlimit,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	clean := true
	var all []rules.Violation
	for _, r := range results {
		fmt.Printf("monitor %q: FD-rule violations %d, ST-rule violations %d, literal-rule violations %d\n",
			r.Monitor, len(r.FD), len(r.ST), len(r.Literal))
		all = append(all, r.FD...)
		all = append(all, r.ST...)
		all = append(all, r.Literal...)
		if !r.Clean() {
			clean = false
		}
	}
	if len(all) > 0 {
		if err := report.Render(os.Stdout, report.Dedup(all)); err != nil {
			fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
			return 1
		}
		fmt.Println(report.Summarize(all))
	}
	if !verify.Agreement(results) {
		fmt.Println("WARNING: the two rule engines disagree (should be impossible, §3.3.2)")
		return 1
	}
	if clean {
		fmt.Println("trace is clean under both rule engines")
		return 0
	}
	fmt.Println("trace contains faults (both engines agree)")
	return 3
}

func dump(args []string) int {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("in", "", "trace file to dump")
	original := fs.Bool("original", false, "render the §3.1 original event model (resumption updates applied)")
	var win window
	win.addFlags(fs)
	_ = fs.Parse(args)
	if *in == "" {
		usage()
		return 2
	}
	return forEachInput(*in, func(path string) int { return dumpOne(path, *original, win) })
}

func dumpOne(in string, original bool, win window) int {
	ld, err := loadWindowed(in, win)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montrace: %v\n", err)
		return 1
	}
	trace := ld.trace
	if original {
		trace = rules.Effective(trace)
	}
	// The tombstone leads the dump: everything below its horizon was
	// dropped by retention, and the reader should know before the first
	// surviving event scrolls past.
	if tb := newestTombstone(ld.tombs); tb != nil {
		fmt.Printf("------  %-13s  TRUNCATED below seq %d by retention (%d events, %d records, %d files dropped)\n",
			"(retention)", tb.Horizon, tb.Events, tb.Records, tb.Files)
		for _, tr := range tb.Monitors {
			fmt.Printf("------  %-13s  dropped seq %d..%d (%d events)\n",
				tr.Monitor, tr.MinSeq, tr.MaxSeq, tr.Events)
		}
	}
	// Markers and pipeline alerts interleave at their horizon: every
	// event at or below the horizon precedes the reset (or the rule
	// transition), everything after follows it.
	type annotation struct {
		horizon int64
		line    string
	}
	var notes []annotation
	for _, mk := range ld.markers {
		notes = append(notes, annotation{mk.Horizon, fmt.Sprintf("------  %-13s  RESET at seq %d (rule %s, %d unchecked events discarded)",
			mk.Monitor, mk.Horizon, mk.Rule, mk.Dropped)})
	}
	for _, a := range ld.alerts {
		who := "(pipeline)"
		if a.Origin != "" {
			who = "(" + a.Origin + ")"
		}
		notes = append(notes, annotation{a.Seq, fmt.Sprintf("------  %-13s  ALERT at seq %d: %s", who, a.Seq, a)})
	}
	sort.SliceStable(notes, func(i, j int) bool { return notes[i].horizon < notes[j].horizon })
	next := 0
	for _, e := range trace {
		for next < len(notes) && notes[next].horizon < e.Seq {
			fmt.Println(notes[next].line)
			next++
		}
		fmt.Printf("%6d  %-13s  %s\n", e.Seq, e.Monitor, e)
	}
	for ; next < len(notes); next++ {
		fmt.Println(notes[next].line)
	}
	switch {
	case len(ld.markers) > 0 && len(ld.alerts) > 0:
		fmt.Printf("%d events, %d recovery markers, %d pipeline alerts\n", len(trace), len(ld.markers), len(ld.alerts))
	case len(ld.markers) > 0:
		fmt.Printf("%d events, %d recovery markers\n", len(trace), len(ld.markers))
	case len(ld.alerts) > 0:
		fmt.Printf("%d events, %d pipeline alerts\n", len(trace), len(ld.alerts))
	default:
		fmt.Printf("%d events\n", len(trace))
	}
	return 0
}
