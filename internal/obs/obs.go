// Package obs is the detector's self-observability layer: an
// allocation-free metrics subsystem (atomic counters, gauges and
// fixed-bucket histograms in a sharded registry) that every layer of
// the pipeline — history, detect, export — instruments its hot paths
// with.
//
// The design follows the tension the detectEr-overheads line of work
// frames: monitoring must quantify its own cost without adding to it.
// Three rules keep the instrumentation honest:
//
//   - Zero locks and zero allocations on the increment path. A handle
//     (Counter, Gauge, Histogram) is looked up once — registration is
//     the cold path, a sharded mutex-protected map — and every
//     Inc/Add/Set/Observe after that is a single atomic operation on a
//     cache-line-padded word. TestIncrementPathDoesNotAllocate pins
//     0 allocs/op on the increment path; the end-to-end benchmark's
//     fanout-fleet workload, whose history, detector and exporter all
//     run on a registry, gates what the instrumentation costs.
//
//   - Nil-safety is the off switch. Every handle method no-ops on a
//     nil receiver and every Registry method returns a nil handle from
//     a nil receiver, so instrumented code calls its metrics
//     unconditionally — no "if enabled" branches scattered through hot
//     loops, no build tags. A layer wired without a registry pays one
//     predictable nil-check branch per increment.
//
//   - Fixed bucket layout, no configuration. Histograms bucket by the
//     bit length of the observed value (powers of two, 65 buckets
//     covering the whole int64 range), so observing is bits.Len64 plus
//     one atomic add — no per-histogram bound slices to allocate, walk
//     or mis-configure, and every histogram in the process is
//     mergeable with every other. Quantiles interpolate within the
//     matched bucket, which is exact to a factor of two by
//     construction — the right precision for latency tails, where the
//     gate's own noise floor is wider than that.
//
// Snapshot() captures the whole registry as plain data; the snapshot
// renders to Prometheus text exposition (WritePrometheus, served by
// Server alongside net/http/pprof) and travels with the trace as
// periodic health records the export WAL persists (see
// internal/export and HealthRecord).
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// pad keeps each metric on its own cache line: hot counters are
// incremented from many goroutines, and two counters sharing a line
// would ping-pong it between cores even though they never contend
// logically. 56 bytes of padding after the 8-byte atomic word fills a
// 64-byte line.
type pad [56]byte

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; a nil Counter discards increments — the
// handle a nil Registry hands out, so instrumented code never
// branches on "metrics enabled".
type Counter struct {
	v atomic.Int64
	_ pad
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n may be any sign, but counters are conventionally
// monotonic — use a Gauge for values that go down).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready; a
// nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
	_ pad
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n to the current value.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations
// whose bit length is i, i.e. bucket 0 holds v ≤ 0 and bucket i>0
// holds v in [2^(i-1), 2^i). bits.Len64 of an int64 is at most 64.
const histBuckets = 65

// Histogram is a fixed-bucket power-of-two histogram. Observe is one
// bits.Len64 plus two atomic adds — no locks, no allocation, no
// configured bounds. The zero value is ready; a nil Histogram
// discards observations. NewHistogram exists for standalone use
// (e.g. a detector without a registry still tracks its checkpoint
// latency).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty standalone histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. Negative values clamp to bucket zero
// (they cannot occur for the durations and sizes this package
// tracks, but must not index out of range).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	var i int
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the p-quantile (p in [0,1]) of the observations,
// interpolated linearly within the matched power-of-two bucket — a
// factor-of-two bound on the true quantile by construction. Returns 0
// when the histogram is empty or nil. Concurrent observations make
// the result a snapshot approximation, which is all a quantile of a
// live histogram can be.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot("").Quantile(p)
}

// snapshot captures the histogram as plain data; buckets are read
// individually (no global pause), so under concurrent writes the
// counts are each exact but mutually approximate.
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{Name: name}
	var total int64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
			total += n
		}
	}
	// Count/Sum from the buckets' own totals where possible keeps the
	// snapshot self-consistent; Sum has no per-bucket source, so it is
	// the racy-but-exact atomic.
	s.Count = total
	s.Sum = h.sum.Load()
	return s
}

// regShards is the registry's shard count — registration is the cold
// path, but a process-wide registry is also snapshotted concurrently
// with registration, and sharding keeps that from serialising either.
const regShards = 8

// Registry is a named collection of metrics. Lookup (Counter, Gauge,
// Histogram) is get-or-create and returns a stable handle the caller
// should keep: the handle is the hot path, the registry map is not.
// A nil *Registry is the disabled mode — every lookup returns a nil
// handle and every handle method no-ops.
//
// Names are conventionally snake_case with a subsystem prefix
// ("history_append_total"); an optional {label="value"} suffix
// ("collect_durable_seq{origin=\"a\"}") renders as Prometheus
// labels. Histogram names must be label-free (the renderer splices
// _bucket/_sum/_count suffixes).
type Registry struct {
	shards [regShards]regShard
}

type regShard struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// shardFor hashes a metric name to its shard (FNV-1a).
func (r *Registry) shardFor(name string) *regShard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return &r.shards[h%regShards]
}

// Counter returns the named counter, creating it on first use. Nil
// registry → nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	s := r.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters == nil {
		s.counters = make(map[string]*Counter)
	}
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil
// registry → nil handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gauges == nil {
		s.gauges = make(map[string]*Gauge)
	}
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Nil registry → nil handle (which a caller needing the histogram
// regardless replaces with NewHistogram()).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.histograms == nil {
		s.histograms = make(map[string]*Histogram)
	}
	h := s.histograms[name]
	if h == nil {
		h = NewHistogram()
		s.histograms[name] = h
	}
	return h
}
