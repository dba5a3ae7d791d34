package history

import (
	"sync"

	"robustmon/internal/event"
)

// Pooled segment slices. The record path's steady-state garbage used
// to be the segment slabs themselves: every drain handed the shard's
// backing array to the consumer and left nil behind, so the next
// append cycle regrew a fresh slab from zero (log₂ n allocations plus
// copies), and the GC then had to scan and reclaim the pointer-dense
// drained slab. At millions of events per second that dominates the
// whole hot loop — the CPU profile is runtime.scanobject, not
// history.Append. Two changes remove it:
//
//   - A full drain swaps slabs instead of abandoning them: the shard
//     hands its slab to the consumer and installs a replacement sized
//     for the burst it just drained, so no drain rhythm ever regrows a
//     slab from zero.
//
//   - A drained segment has one owner at a time, and its last owner
//     returns it with Recycle. In the detector the cycle is shard →
//     detector (replay) → exporter (write) → Recycle → pool → shard:
//     the detector hands each replayed segment to its exporter, whose
//     writer recycles it once the sink has written it (or the
//     detector recycles it itself when no exporter is wired). The E6
//     record-path harness and any tool that drains, uses and discards
//     close the same loop by hand. With the loop closed the record
//     path allocates nothing per event in steady state.
//
// Consumers that never call Recycle lose nothing: the handed-off slabs
// are ordinary garbage, and the pool's classes are refilled by fresh
// class-capacity allocations — one bounded make per drain instead of a
// regrowth series per drain.
//
// Pool hygiene: every pooled slab has exactly a class capacity
// (Recycle reslices odd append-grown capacities down to the class
// below, so a Get always returns the capacity its class promises), and
// pooled slabs hold no stale events — Recycle clears the written
// prefix, and every other slab source (make, append growth) starts
// zeroed. Two bounded retention exceptions, both unreachable through
// any pooled slice: the region a partial drain advanced past, and the
// tail a reslice cut off. Each can pin at most one slab's worth of
// already-drained events until the backing array is overwritten or
// collected.

// maxRetainedCap bounds the slab capacity the pool accepts and the
// replacement size a drain installs. A hold-world checkpoint of one
// hot monitor at a 10 ms interval drains tens of thousands of events,
// so the top class covers those bursts — at 104 bytes per event it is
// ~6.8 MB — without letting a pathological spike park an unbounded
// slab in the pool.
const maxRetainedCap = 65536

// segClasses are the pooled capacity classes (in events), smallest
// first — power-of-two steps so an append-grown slab rounds down to a
// nearby class instead of wasting half its capacity, and so the class
// a burst hints at is never far above the burst.
var segClasses = [...]int{1024, 2048, 4096, 8192, 16384, 32768, maxRetainedCap}

var segPools [len(segClasses)]sync.Pool

// classFor returns the index of the smallest class holding hint, or -1
// when hint exceeds the top class.
func classFor(hint int) int {
	for i, class := range segClasses {
		if hint <= class {
			return i
		}
	}
	return -1
}

// slabFor returns a zero-length slab with capacity at least hint: a
// pooled slab when one is available, a fresh class-capacity allocation
// for class-sized hints (so drain rhythms stay one-alloc-per-drain
// even when nothing recycles), and nil for hints below the smallest
// class (a small shard regrows naturally — eagerly allocating the
// smallest class for a trickle would cost more than it saves) or
// beyond the largest (unpoolable anyway). pooled reports whether the
// slab came out of the pool — the hit/miss signal the obs counters
// publish.
func slabFor(hint int) (slab []event.Event, pooled bool) {
	i := classFor(hint)
	if i < 0 {
		return nil, false
	}
	if p, _ := segPools[i].Get().(*[]event.Event); p != nil {
		return *p, true
	}
	if hint < segClasses[0] {
		return nil, false
	}
	return make([]event.Event, 0, segClasses[i]), false
}

// newSegment returns a length-n slice for a drained segment copy, from
// the pool when possible (an allocation beyond the top class will not
// be pooled on Recycle). pooled reports a pool hit, as in slabFor.
func newSegment(n int) (seg event.Seq, pooled bool) {
	if s, hit := slabFor(n); s != nil {
		return s[:n], hit
	}
	if i := classFor(n); i >= 0 {
		return make(event.Seq, n, segClasses[i]), false
	}
	return make(event.Seq, n), false
}

// Recycle returns a drained segment's backing array to the segment
// pool. Only the segment's last owner may call it: the segment is
// dead and nothing else holds a reference — drain tees only read a
// segment during their call, so they never count. A segment handed to
// an exporter belongs to the exporter, which recycles it itself once
// written. Recycling a shared segment corrupts whatever the other
// holder reads next — when in doubt, don't: an unrecycled segment is
// merely garbage. The written prefix is cleared (it is pointer-dense;
// a pooled slab must not pin event strings) and the capacity is
// normalised down to its class before pooling; oversized and
// undersized slices fall to the GC.
func Recycle(seg event.Seq) {
	c := cap(seg)
	if c < segClasses[0] || c > maxRetainedCap {
		return
	}
	s := []event.Event(seg)
	// A range loop, not clear: the compiler turns it into the same
	// memclr, except under -race, where the loop's writes stay visible
	// to the race detector — so a caller that touches a segment after
	// handing it on races with the recycler and is reported.
	for i := range s {
		s[i] = event.Event{}
	}
	for i := len(segClasses) - 1; i >= 0; i-- {
		if c >= segClasses[i] {
			s = s[:0:segClasses[i]]
			segPools[i].Put(&s)
			return
		}
	}
}

// drainSegmentLocked cuts the first n events out of s.segment as an
// exclusively-owned segment and leaves the shard ready to record.
// Caller holds s.mu.
//
// A full drain is a swap, not a copy: ownership of the slab transfers
// to the caller and the shard installs a replacement sized by the
// drained burst (or nil for a trickle — appends then regrow naturally,
// which is the pre-pool behaviour). A slab that grew past
// maxRetainedCap is handed off the same way but would be rejected by
// Recycle, so a pathological burst cannot park megabytes in the pool.
//
// A partial cut (a bounded batch, or a horizon with later events
// buffered behind it) copies the prefix out into a pooled segment and
// advances the slab in place — repeated batch drains of a long
// backlog stay O(n) total, not O(n²/batch), and the handed-out prefix
// shares nothing with the events left buffered.
func (s *shard) drainSegmentLocked(n int) event.Seq {
	if n == 0 {
		return nil
	}
	s.met.drainEvents.Observe(int64(n))
	if n == len(s.segment) {
		seg := event.Seq(s.segment)
		slab, pooled := slabFor(n)
		s.segment = slab
		// A nil slab is a deliberate trickle-path non-allocation, neither
		// hit nor miss.
		if pooled {
			s.met.poolHit.Inc()
		} else if slab != nil {
			s.met.poolMiss.Inc()
		}
		return seg
	}
	out, pooled := newSegment(n)
	if pooled {
		s.met.poolHit.Inc()
	} else {
		s.met.poolMiss.Inc()
	}
	copy(out, s.segment[:n])
	s.segment = s.segment[n:]
	return out
}
