// Package robustmon is a Go reproduction of "Run-time Fault Detection
// in Monitor Based Concurrent Programming" (Cao, Cheung, Chan — DSN
// 2001): an augmented monitor construct whose Enter / Wait /
// Signal-Exit primitives record scheduling events into a history
// database, checked periodically (and, for resource allocators, in real
// time) against the paper's fault-detection rules. The package is a
// facade over the implementation packages; everything needed to build
// monitors, run workloads, inject the 21 classified fault kinds and
// detect them is re-exported here.
//
// The hot path is built to scale with the number of monitors: the
// history database is sharded per monitor (each shard has its own lock
// and segment buffer; global event order is preserved by an atomic
// sequence counter), and the detector's checkpoints run as a parallel
// pipeline — each monitor's freeze → snapshot → drain-own-shard →
// replay → thaw is distributed across a bounded worker pool
// (DetectorConfig.Workers). NewDetector keeps the paper-faithful
// stop-the-world barrier; NewDetectorNoFreeze checks each monitor
// independently and never stops an unrelated one. Many monitors share
// one database: wire them all with WithRecorder(db) and hand them to a
// single detector.
//
// Batched replay (DetectorConfig.BatchSize) bounds checkpoint cost: it
// drains and replays segments in bounded batches with the
// checking-list seeding paid once per checkpoint, so a shard that
// buffered millions of events cannot stall a checkpoint (in the
// no-freeze mode the monitor is frozen only long enough to fix the
// checkpoint horizon). It reports the identical violation set as the
// serial single-drain path.
//
// Offline artefacts no longer require holding the run in memory
// (WithFullTrace): an Exporter (DetectorConfig.Exporter) streams every
// drained checkpoint segment through a bounded buffer to a pluggable
// sink — e.g. a WALSink directory of CRC-protected segment files —
// and ReadExportDir replays the run from disk in the exact <L order,
// recovering from a crash-truncated tail.
//
// Detection can also recover, not just report (the paper's §5 future
// work): a RecoveryManager with the ResetMonitor policy, attached to
// its detector via SetResetter, resets a faulty monitor online —
// shard-local and world-stop free. Only the offending monitor is
// frozen while its unchecked history is discarded, its queues, blocked
// processes and R# reinitialised and its checking state reseeded;
// every other monitor keeps running and checkpointing, and a recovery
// marker is streamed into the export so offline replay knows the reset
// horizon.
//
// # Quick start
//
//	spec := robustmon.Spec{
//	    Name:       "account",
//	    Kind:       robustmon.OperationManager,
//	    Conditions: []string{"nonZero"},
//	}
//	db := robustmon.NewHistory(robustmon.WithFullTrace())
//	mon, err := robustmon.NewMonitor(spec, robustmon.WithRecorder(db))
//	if err != nil { ... }
//	det := robustmon.NewDetector(db, robustmon.DetectorConfig{
//	    Tmax: 10 * time.Second,
//	    Tio:  10 * time.Second,
//	}, mon)
//
//	rt := robustmon.NewRuntime()
//	rt.Spawn("worker", func(p *robustmon.Process) {
//	    if err := mon.Enter(p, "Deposit"); err != nil { return }
//	    // ... operate on the shared state ...
//	    _ = mon.SignalExit(p, "Deposit", "nonZero")
//	})
//	rt.Join()
//
//	for _, v := range det.CheckNow() {
//	    fmt.Println(v)
//	}
//
// See the examples directory for complete programs and DESIGN.md for
// the mapping from the paper's concepts to packages.
package robustmon

import (
	"io"
	"time"

	"robustmon/internal/assert"
	"robustmon/internal/clock"
	"robustmon/internal/detect"
	"robustmon/internal/event"
	"robustmon/internal/experiment"
	"robustmon/internal/export"
	"robustmon/internal/export/compact"
	"robustmon/internal/export/index"
	"robustmon/internal/export/net"
	"robustmon/internal/external"
	"robustmon/internal/faults"
	"robustmon/internal/history"
	"robustmon/internal/mdl"
	"robustmon/internal/monitor"
	"robustmon/internal/obs"
	obsrules "robustmon/internal/obs/rules"
	"robustmon/internal/pathexpr"
	"robustmon/internal/proc"
	"robustmon/internal/recovery"
	"robustmon/internal/report"
	"robustmon/internal/rules"
	"robustmon/internal/verify"
)

// Monitor construct.
type (
	// Monitor is the augmented monitor (Enter / Wait / SignalExit /
	// Exit primitives with instrumentation and checkpoint support).
	Monitor = monitor.Monitor
	// Spec is the visible part of a monitor declaration.
	Spec = monitor.Spec
	// MonitorOption configures NewMonitor.
	MonitorOption = monitor.Option
	// Hooks is the fault-injection surface of the monitor protocol.
	Hooks = monitor.Hooks
	// Recorder receives scheduling events (history databases and the
	// real-time checker implement it).
	Recorder = monitor.Recorder
)

// The three monitor classes.
const (
	CommunicationCoordinator = monitor.CommunicationCoordinator
	ResourceAllocator        = monitor.ResourceAllocator
	OperationManager         = monitor.OperationManager
)

// Monitor construction errors.
var (
	// ErrSpec reports an invalid monitor declaration.
	ErrSpec = monitor.ErrSpec
	// ErrUnknownCond reports a Wait/Signal-Exit on an undeclared
	// condition.
	ErrUnknownCond = monitor.ErrUnknownCond
	// ErrAborted reports that a blocked process was aborted.
	ErrAborted = monitor.ErrAborted
)

// NewMonitor validates the declaration and builds a monitor.
func NewMonitor(spec Spec, opts ...MonitorOption) (*Monitor, error) {
	return monitor.New(spec, opts...)
}

// WithRecorder attaches a history database (or checking tee) to a
// monitor. A monitor without a recorder runs bare — the paper's
// "without extension" baseline.
func WithRecorder(r Recorder) MonitorOption { return monitor.WithRecorder(r) }

// WithClock sets the monitor's time source.
func WithClock(c Clock) MonitorOption { return monitor.WithClock(c) }

// WithHooks installs protocol-deviation hooks (fault injection).
func WithHooks(h Hooks) MonitorOption { return monitor.WithHooks(h) }

// Processes.
type (
	// Process is one user process bound to a goroutine.
	Process = proc.P
	// Runtime spawns and tracks processes.
	Runtime = proc.Runtime
)

// NewRuntime returns an empty process runtime.
func NewRuntime() *Runtime { return proc.NewRuntime() }

// Clocks.
type (
	// Clock abstracts time (real or virtual).
	Clock = clock.Clock
	// VirtualClock is a deterministic, manually advanced clock.
	VirtualClock = clock.Virtual
)

// NewVirtualClock returns a virtual clock at the given epoch.
func NewVirtualClock(epoch time.Time) *VirtualClock { return clock.NewVirtual(epoch) }

// History.
type (
	// History is the history-information database.
	History = history.DB
	// HistoryOption configures NewHistory.
	HistoryOption = history.Option
	// EventSeq is a scheduling event sequence L.
	EventSeq = event.Seq
)

// NewHistory returns an empty history database, sharded per monitor:
// events from different monitors are recorded into independent shards
// under independent locks, while an atomic sequence counter keeps the
// global <L order for drains, exports and offline replay.
func NewHistory(opts ...HistoryOption) *History { return history.New(opts...) }

// WithFullTrace keeps the complete event trace for export and offline
// checking.
func WithFullTrace() HistoryOption { return history.WithFullTrace() }

// Streaming trace export (the async pipeline replacing WithFullTrace
// for offline artefacts — see internal/export).
type (
	// Exporter streams drained history segments to a Sink off the hot
	// path through a bounded buffer.
	Exporter = export.Exporter
	// ExporterConfig parameterises NewExporter (buffer size,
	// backpressure policy).
	ExporterConfig = export.Config
	// ExportSink persists exported segments.
	ExportSink = export.Sink
	// ExportSealedSink consumes sealed-file summaries
	// (WALConfig.OnSeal fan-out).
	ExportSealedSink = export.SealedSink
	// WALSink persists segments to a directory of CRC-protected,
	// fsync-on-rotate files.
	WALSink = export.WALSink
	// WALConfig parameterises NewWALSink.
	WALConfig = export.WALConfig
	// ExportReplay is a trace read back from an export directory.
	ExportReplay = export.Replay
)

// Backpressure policies.
const (
	// ExportBlock stalls the drainer until the exporter has room —
	// lossless.
	ExportBlock = export.Block
	// ExportDrop discards segments when the buffer is full and counts
	// them.
	ExportDrop = export.Drop
)

// NewExporter starts an exporter writing to sink. Wire it to a
// detector via DetectorConfig.Exporter: each checkpoint then hands
// every segment it replayed to the exporter, which owns the segment
// from then on and recycles its slab into the history pool once
// written. A tool draining a History itself hands each drained
// segment to Exporter.Consume and must not touch it afterwards.
// Close it after the run.
func NewExporter(sink ExportSink, cfg ExporterConfig) *Exporter { return export.New(sink, cfg) }

// NewWALSink opens (creating if needed) an export directory for
// appending.
func NewWALSink(dir string, cfg WALConfig) (*WALSink, error) { return export.NewWALSink(dir, cfg) }

// ReadExportDir replays an export directory back into the global <L
// order, recovering from a crash-truncated tail.
func ReadExportDir(dir string) (*ExportReplay, error) { return export.ReadDir(dir) }

// Trace store (the query/storage layer over export directories —
// internal/export/index and internal/export/compact): a sparse
// per-file index maintained by the WAL sink on rotation (or rebuilt
// from the files), a SeekReader answering windowed replay queries by
// opening only index-admitted files, and a compactor merging the
// rotated backlog per monitor.
type (
	// TraceIndex is the per-directory file-summary table.
	TraceIndex = index.Index
	// TraceIndexMaintainer keeps the index in step with a WALSink
	// (wire it into WALConfig.OnSeal).
	TraceIndexMaintainer = index.Maintainer
	// TraceSeekReader answers windowed replay queries through the
	// index.
	TraceSeekReader = index.SeekReader
	// CompactionConfig parameterises CompactExportDir.
	CompactionConfig = compact.Config
	// CompactionResult accounts one compaction.
	CompactionResult = compact.Result
)

// NewTraceIndexMaintainer returns a maintainer keeping dir's index
// file in step with the sink that writes dir.
func NewTraceIndexMaintainer(dir string) *TraceIndexMaintainer { return index.NewMaintainer(dir) }

// RebuildTraceIndex reconstructs dir's index by scanning its segment
// files' record headers (both WAL format versions). Call Write on the
// result to persist it.
func RebuildTraceIndex(dir string) (*TraceIndex, error) { return index.Rebuild(dir) }

// OpenTraceReader opens an export directory for windowed replay
// queries (ReplayRange); without an index every query scans every
// file, exactly like ReadExportDir.
func OpenTraceReader(dir string) (*TraceSeekReader, error) { return index.OpenDir(dir) }

// CompactExportDir merges dir's rotated segment files per monitor —
// never the active segment (Config.KeepNewest) — preserving recovery
// markers and replay equivalence, and brings the index in step. Wire
// it into WALConfig.Compact (with CompactEvery) to have a long-running
// detector bound its own on-disk footprint:
//
//	cfg := robustmon.WALConfig{
//	    CompactEvery: 64,
//	    Compact: func(dir string) error {
//	        _, err := robustmon.CompactExportDir(dir, robustmon.CompactionConfig{})
//	        return err
//	    },
//	}
func CompactExportDir(dir string, cfg CompactionConfig) (*CompactionResult, error) {
	return compact.Dir(dir, cfg)
}

// Fleet mode (internal/export/net): ship trace records from detector
// processes to a central collector over TCP instead of (or teed with)
// a local WAL directory. A NetSink implements ExportSink plus both
// extensions, so it slots anywhere a WALSink does; the collector
// lands every producer origin in its own subdirectory of a fleet
// root — each a plain export directory the offline tools (montrace,
// OpenTraceReader, CompactExportDir) understand unchanged. Delivery
// is at-least-once behind a resume handshake with bounded
// buffer-and-resume during partitions; replay on the collector is
// byte-identical and exactly-once.
type (
	// NetSink ships sealed trace records to a collector.
	NetSink = netexport.NetSink
	// NetSinkConfig parameterises NewNetSink (address, origin,
	// buffering, backpressure policy, retry bounds).
	NetSinkConfig = netexport.NetSinkConfig
	// NetSinkStats counts a sink's activity; Accepted = Acked +
	// Dropped + Buffered always holds.
	NetSinkStats = netexport.NetSinkStats
	// Collector is the fleet-mode server (cmd/moncollect wraps it).
	Collector = netexport.Collector
	// CollectorConfig parameterises NewCollector (fleet root,
	// flush-and-ack cadence, per-origin WAL knobs).
	CollectorConfig = netexport.CollectorConfig
)

// NewNetSink validates cfg and starts the background shipper. The
// collector does not need to be reachable yet: records buffer until
// the first successful resume handshake.
func NewNetSink(cfg NetSinkConfig) (*NetSink, error) { return netexport.NewNetSink(cfg) }

// NewCollector creates the fleet root and returns a collector ready
// to Serve on any number of listeners.
func NewCollector(cfg CollectorConfig) (*Collector, error) { return netexport.NewCollector(cfg) }

// Self-observability (internal/obs): an allocation-free metrics
// registry instrumenting every layer of the pipeline. Pass one
// registry to the layers that accept it — NewHistory(WithObsMetrics
// (reg)), DetectorConfig.Obs, ExporterConfig.Obs,
// CompactionConfig.Obs — and read it back three ways: ObsRegistry.
// Snapshot() in process, StartObsServer for a Prometheus-text
// /metrics endpoint with the pprof suite on the same listener, and
// DetectorConfig.HealthEvery for periodic health snapshots
// streamed into the export WAL (rendered by `montrace stats`).
// Instrumentation is strictly optional: a nil registry configures
// nil handles whose methods are no-ops, so an uninstrumented run
// pays only an untaken nil check per increment.
type (
	// ObsRegistry names and owns metrics. Handles (Counter, Gauge,
	// Histogram) are resolved once and then increment lock-free and
	// allocation-free.
	ObsRegistry = obs.Registry
	// ObsConfig parameterises StartObsServer.
	ObsConfig = obs.Config
	// ObsServer is a running /metrics + /healthz + /debug/pprof
	// endpoint.
	ObsServer = obs.Server
	// ObsRule is one declarative threshold over the registry — an
	// absolute ceiling on a gauge or histogram quantile, or (with Rate)
	// on a counter's per-second slope — with FireAfter/ClearAfter
	// hysteresis. Attach rules via DetectorConfig.Rules and the
	// detector evaluates them at every HealthEvery snapshot, raising a
	// synthetic META violation and a WAL pipeline alert on each
	// transition; ResetMonitor additionally drives the shard-local
	// recovery path. The quiet (no-transition) evaluation walk is
	// allocation-free (pinned by TestEvalNoFireAllocs in
	// internal/obs/rules).
	ObsRule = obsrules.Rule
)

// MetaRule is the synthetic RuleID carried by violations that report
// pipeline degradation (a fired threshold rule) rather than an
// application fault.
const MetaRule = rules.Meta

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// StartObsServer binds cfg.Addr and serves /metrics (Prometheus text
// exposition of cfg.Registry), /healthz, and — unless disabled — the
// /debug/pprof suite, until Close.
func StartObsServer(cfg ObsConfig) (*ObsServer, error) { return obs.StartServer(cfg) }

// WithObsMetrics instruments the history database on reg:
// history_append_total, the slab-pool counters history_pool_hit_total
// and history_pool_miss_total, and the drain-size histogram
// history_drain_events. The option form matches the database's other knobs; the
// detector, exporter and compactor take the same registry through
// their config structs.
func WithObsMetrics(reg *ObsRegistry) HistoryOption { return history.WithObs(reg) }

// Trace I/O.

// WriteTraceJSON writes a trace as JSON Lines.
func WriteTraceJSON(w io.Writer, s EventSeq) error { return event.WriteJSON(w, s) }

// ReadTraceJSON reads a JSON Lines trace.
func ReadTraceJSON(r io.Reader) (EventSeq, error) { return event.ReadJSON(r) }

// Detection.
type (
	// Detector is the periodic checking routine (Algorithms 1-3).
	Detector = detect.Detector
	// DetectorConfig parameterises a Detector.
	DetectorConfig = detect.Config
	// RealTime is the per-event calling-order checker for allocators.
	RealTime = detect.RealTime
	// Checker is an extra checkpoint-time check (assertions).
	Checker = detect.Checker
	// Violation is one detected rule violation.
	Violation = rules.Violation
)

// NewDetector builds the periodic detector over the database and
// monitors, taking the initial checkpoint snapshots.
func NewDetector(db *History, cfg DetectorConfig, mons ...*Monitor) *Detector {
	cfg.HoldWorld = true
	return detect.New(db, cfg, mons...)
}

// NewDetectorNoFreeze is NewDetector without the stop-the-world hold
// during checking (the ablation configuration; the paper's prototype
// suspends all processes).
func NewDetectorNoFreeze(db *History, cfg DetectorConfig, mons ...*Monitor) *Detector {
	cfg.HoldWorld = false
	return detect.New(db, cfg, mons...)
}

// NewRealTime wraps a recorder with real-time calling-order checking
// for the allocator-kind monitors among specs.
func NewRealTime(next Recorder, specs []Spec, onViolation func(Violation)) (*RealTime, error) {
	return detect.NewRealTime(next, specs, onViolation)
}

// Fault taxonomy and injection.
type (
	// FaultKind identifies one fault from the §2.2 taxonomy.
	FaultKind = faults.Kind
	// Injector realises one fault kind.
	Injector = faults.Injector
)

// The twenty-one fault kinds (§2.2).
const (
	EnterMutexViolation      = faults.EnterMutexViolation
	EnterLostProcess         = faults.EnterLostProcess
	EnterNoResponse          = faults.EnterNoResponse
	EnterNotObserved         = faults.EnterNotObserved
	WaitNoBlock              = faults.WaitNoBlock
	WaitLostProcess          = faults.WaitLostProcess
	WaitNoHandoff            = faults.WaitNoHandoff
	WaitEntryStarved         = faults.WaitEntryStarved
	WaitMutexViolation       = faults.WaitMutexViolation
	WaitMonitorNotReleased   = faults.WaitMonitorNotReleased
	SignalNoResume           = faults.SignalNoResume
	SignalMonitorNotReleased = faults.SignalMonitorNotReleased
	SignalMutexViolation     = faults.SignalMutexViolation
	InternalTermination      = faults.InternalTermination
	SendSpuriousDelay        = faults.SendSpuriousDelay
	ReceiveSpuriousDelay     = faults.ReceiveSpuriousDelay
	ReceiveOvertake          = faults.ReceiveOvertake
	SendOverflow             = faults.SendOverflow
	ReleaseWithoutAcquire    = faults.ReleaseWithoutAcquire
	ResourceNeverReleased    = faults.ResourceNeverReleased
	SelfDeadlock             = faults.SelfDeadlock
)

// AllFaultKinds returns the taxonomy in the paper's order.
func AllFaultKinds() []FaultKind { return faults.AllKinds() }

// NewInjector returns a disarmed injector for one fault kind.
func NewInjector(kind FaultKind, opts ...faults.InjectorOption) *Injector {
	return faults.NewInjector(kind, opts...)
}

// Path expressions.
type (
	// Path is a compiled call-order declaration.
	Path = pathexpr.Path
)

// ParsePath parses and compiles a path expression such as
// "path Acquire ; Release end".
func ParsePath(src string) (*Path, error) { return pathexpr.Parse(src) }

// Offline checking.
type (
	// VerifyOptions parameterises offline trace checking.
	VerifyOptions = verify.Options
	// VerifyResult holds both rule checkers' findings for one monitor.
	VerifyResult = verify.Result
)

// VerifyTrace re-checks a recorded trace offline with both independent
// rule implementations.
func VerifyTrace(trace EventSeq, opts VerifyOptions) ([]VerifyResult, error) {
	return verify.Trace(trace, opts)
}

// VerifyAgreement reports whether the two offline checkers agree.
func VerifyAgreement(results []VerifyResult) bool { return verify.Agreement(results) }

// Extensions (§5 future work).
type (
	// AssertionSet groups user-supplied assertions for one monitor.
	AssertionSet = assert.Set
	// RecoveryManager applies a recovery policy to violations.
	RecoveryManager = recovery.Manager
	// RecoveryPolicy selects the reaction to a violation.
	RecoveryPolicy = recovery.Policy
	// RecoveryAction records one step the recovery manager took.
	RecoveryAction = recovery.Action
)

// Recovery policies.
const (
	ReportOnly    = recovery.ReportOnly
	ResetMonitor  = recovery.ResetMonitor
	AbortOffender = recovery.AbortOffender
)

// NewAssertionSet returns an empty assertion set for the named monitor.
func NewAssertionSet(monitorName string) *AssertionSet { return assert.NewSet(monitorName) }

// NewRecoveryManager builds a recovery manager over the given monitors
// — the set the ResetMonitor policy may reset. Wire mgr.Handle into
// DetectorConfig.OnViolation, and call mgr.SetResetter(det) with the
// detector checking those monitors to make the ResetMonitor policy
// shard-local and online: a violation on monitor M then freezes and
// reinitialises only M (history segment, queues, blocked processes,
// R#, checking lists) while every other monitor
// keeps running, and a recovery marker is streamed through the exporter
// so offline replay knows the reset horizon. Without a resetter the
// policy falls back to the direct Monitor.Reset, which is only safe
// against a stopped world.
func NewRecoveryManager(p RecoveryPolicy, rt *Runtime, mons ...*Monitor) *RecoveryManager {
	return recovery.NewManager(p, rt, mons...)
}

// Experiments (the paper's evaluation, §4).
type (
	// CoverageResult is one row of the E1 robustness experiment.
	CoverageResult = experiment.CoverageResult
)

// RunCoverage injects the given fault kinds and reports detection
// results (E1: the paper's "all injected faults are detected").
func RunCoverage(kinds []FaultKind) []CoverageResult { return experiment.RunCoverage(kinds) }

// External consistency (§1's per-program sequential constraints,
// checked at run time across monitors).
type (
	// ExternalChecker enforces a program-wide calling order over
	// qualified "monitor_Procedure" names, per process.
	ExternalChecker = external.Checker
)

// NewExternalChecker compiles the external order declaration and wraps
// next with its enforcement.
func NewExternalChecker(next Recorder, order string, onViolation func(Violation)) (*ExternalChecker, error) {
	return external.NewChecker(next, order, onViolation)
}

// QualifyProc builds the qualified symbol for a (monitor, procedure)
// pair used in external order declarations.
func QualifyProc(monitorName, procName string) string {
	return external.Qualify(monitorName, procName)
}

// Reporting.

// DedupViolations collapses repeated reports of the same underlying
// problem (timer rules re-fire every checkpoint).
func DedupViolations(vs []Violation) []Violation { return report.Dedup(vs) }

// RenderRecoveryActions writes the recovery manager's action log as a
// human-readable listing.
func RenderRecoveryActions(w io.Writer, actions []RecoveryAction) error {
	return report.RenderRecovery(w, actions)
}

// Monitor declaration language (the §4 "general form of the monitor
// specification").

// ParseDeclarations parses textual monitor declarations such as
//
//	buffer: Monitor (communication-coordinator);
//	    cond notFull, notEmpty;
//	    proc Send, Receive;
//	    rmax 4;
//	    send Send;
//	    receive Receive;
//	end buffer.
//
// into validated Specs.
func ParseDeclarations(src string) ([]Spec, error) { return mdl.Parse(src) }
