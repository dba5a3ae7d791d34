package history

import (
	"sync"

	"robustmon/internal/event"
)

// Pooled segment slabs. Left to append, the record path's steady-state
// garbage is the segment slabs themselves: every drain hands the
// shard's backing array to the consumer, and the shard regrows a fresh
// slab through append's 1.25× series (log n allocations plus copies)
// that the GC has to scan and reclaim. At millions of events per
// second that dominates the whole hot loop — the CPU profile is
// runtime.scanobject, not history.Append. So every slab a shard holds
// comes from, and goes back to, a pool of power-of-two classes:
//
//   - A full slab grows into the next class (twice its buffered
//     events) and recycles its old slab whole, so growth costs one
//     pooled Get and one copy, never a regrowth series.
//
//   - A full drain swaps slabs instead of abandoning them: the shard
//     hands its slab to the consumer and installs a replacement sized
//     for the whole interval the drain ended — the final batch plus
//     the batch cuts since the last full drain — so a batched
//     checkpoint does not leave the shard a slab for its last batch
//     alone. A final batch that earlier cuts advanced past is moved
//     down to its slab's start, so the consumer gets the slab at the
//     class the shard used and recycles it there.
//
//   - A drained segment has one owner at a time, and its last owner
//     returns it with Recycle. In the detector the cycle is shard →
//     detector (replay) → exporter (write) → Recycle → pool → shard:
//     the detector hands each replayed segment to its exporter, whose
//     writer recycles it once the sink has written it (or the
//     detector recycles it itself when no exporter is wired).
//     TestRecordPathAllocsPerEvent and any tool that drains, uses and
//     discards close the same loop by hand. With the loop closed the
//     record path allocates nothing per event in steady state.
//
// Consumers that never call Recycle lose nothing: the handed-off slabs
// are ordinary garbage, and the pool's classes are refilled by fresh
// class-capacity allocations — one bounded make per drain or growth.
//
// Pool hygiene: every pooled slab has exactly a class capacity
// (Recycle reslices odd capacities down to the class below, so a Get
// always returns the capacity its class promises), and pooled slabs
// hold no stale events. Recycle clears the written prefix, and a
// shard keeps everything past its slab's length zero: growth copies
// into a clean slab, a final batch moved down clears the tail it
// left, and ResetMonitor clears what it discards. The one bounded
// retention exception is the region partial drains advanced past,
// which holds already-drained events until the slab grows, is reset
// or is drained whole.

// maxRetainedCap is the top class: the largest slab the pool accepts
// and the replacement a drain above it installs. At 104 bytes per
// event it is ~13.6 MB. A hold-world checkpoint of one hot monitor at
// a 10 ms interval drains tens of thousands of events, and some drains
// exceed 65,536 (DESIGN §2a gives the measured counts). A burst beyond
// this class grows in unpooled doublings, and Recycle refuses the
// result, so a pathological spike cannot park an unbounded slab in the
// pool.
const maxRetainedCap = 131072

// segClasses are the pooled capacity classes (in events), smallest
// first. Power-of-two steps make growth a move into the next class,
// and the class a drain asks for is never far above the interval it
// sizes. The smallest class holds one 256-event batch cut.
var segClasses = [...]int{256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, maxRetainedCap}

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

// slabFor returns a zero-length, zeroed slab with capacity at least
// hint: a pooled slab of the smallest class holding hint when one is
// available, otherwise a fresh class-capacity allocation, and an
// unpooled slab of exactly hint beyond the top class. It never returns
// nil. pooled reports whether the slab came out of the pool.
func slabFor(hint int) (slab []event.Event, pooled bool) {
	i := classFor(hint)
	if i < 0 {
		return make([]event.Event, 0, hint), false
	}
	if p, _ := segPools[i].Get().(*[]event.Event); p != nil {
		return *p, true
	}
	return make([]event.Event, 0, segClasses[i]), false
}

// takeSlab is slabFor plus the pool counters: a pooled slab is a hit,
// a fresh class-capacity allocation a miss, and a slab beyond the top
// class neither. Caller holds s.mu.
func (s *shard) takeSlab(hint int) []event.Event {
	slab, pooled := slabFor(hint)
	if pooled {
		s.met.poolHit.Inc()
	} else if hint <= maxRetainedCap {
		s.met.poolMiss.Inc()
	}
	return slab
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

// grow makes room in a full slab: the buffered events move into a
// slab of the class twice their count (the next class when no cut has
// advanced the slab), and the old slab is recycled whole, drained
// region included. Caller holds s.mu.
func (s *shard) grow() {
	buf := s.buffered()
	slab := s.takeSlab(2 * len(buf))[:len(buf)]
	copy(slab, buf)
	Recycle(s.slab)
	s.slab, s.head = slab, 0
}

// drainSegmentLocked cuts the first n events out of the shard's
// buffer as an exclusively-owned segment and leaves the shard ready to
// record. Caller holds s.mu.
//
// A full drain is a swap, not a copy: ownership of the slab transfers
// to the caller — from its start, the buffered events moved down over
// the region earlier cuts drained — and the shard installs a
// replacement sized for the interval the drain ended, capped at the
// top class. The interval is counted here, at drain rhythm: the batch
// cuts since the last full drain plus this final batch.
//
// A partial cut (a bounded batch, or a horizon with later events
// buffered behind it) copies the prefix out into a pooled segment and
// advances the buffer's start in place — repeated batch drains of a
// long backlog stay O(n) total, not O(n²/batch), and the handed-out
// prefix shares nothing with the events left buffered.
func (s *shard) drainSegmentLocked(n int) event.Seq {
	if n == 0 {
		return nil
	}
	s.met.drainEvents.Observe(int64(n))
	if buf := s.buffered(); n < len(buf) {
		out := s.takeSlab(n)[:n]
		copy(out, buf)
		s.head += n
		s.cut += n
		return out
	}
	seg := s.slab
	if s.head > 0 {
		copy(seg, seg[s.head:])
		clear(seg[n:])
		seg = seg[:n]
	}
	s.slab = s.takeSlab(min(s.cut+n, maxRetainedCap))
	s.head, s.cut = 0, 0
	return seg
}
