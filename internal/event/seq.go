package event

import (
	"container/heap"
	"fmt"
)

// Seq is a scheduling event sequence L = l1 … ln. The slice order is
// the <L order; Seq values inside the events are consistent with it
// when the sequence came from the history database.
type Seq []Event

// SubSeq returns the paper's L_{i,j}: the subsequence of events whose
// sequence numbers lie in [i, j], preserving order. Events with Seq 0
// (never registered with a history database) are excluded.
func (s Seq) SubSeq(i, j int64) Seq {
	out := make(Seq, 0, len(s))
	for _, e := range s {
		if e.Seq >= i && e.Seq <= j && e.Seq != 0 {
			out = append(out, e)
		}
	}
	return out
}

// ByMonitor returns the subsequence of events on the named monitor.
func (s Seq) ByMonitor(name string) Seq {
	out := make(Seq, 0, len(s))
	for _, e := range s {
		if e.Monitor == name {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks every event and that sequence numbers are strictly
// increasing (events with Seq 0 are rejected here: a checked sequence
// must have been registered).
func (s Seq) Validate() error {
	var prev int64
	for idx, e := range s {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("seq[%d]: %w", idx, err)
		}
		if e.Seq <= prev {
			return fmt.Errorf("seq[%d]: sequence number %d not increasing (previous %d)", idx, e.Seq, prev)
		}
		prev = e.Seq
	}
	return nil
}

// Merge interleaves already-ordered sequences into one sequence ordered
// by sequence number — the <L order. The sharded history database keeps
// one seq-sorted trace per monitor and merges them for its full trace,
// so the merged result is exactly the sequence a single global
// database would have recorded. Inputs must each be sorted by Seq (as
// database segments are); empty inputs are skipped.
func Merge(seqs ...Seq) Seq {
	n, nonEmpty := 0, 0
	var last Seq
	for _, s := range seqs {
		if len(s) == 0 {
			continue
		}
		n += len(s)
		nonEmpty++
		last = s
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		return append(Seq(nil), last...)
	}
	h := make(mergeHeap, 0, nonEmpty)
	for _, s := range seqs {
		if len(s) > 0 {
			h = append(h, s)
		}
	}
	heap.Init(&h)
	out := make(Seq, 0, n)
	for len(h) > 0 {
		s := h[0]
		out = append(out, s[0])
		if len(s) > 1 {
			h[0] = s[1:]
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// mergeHeap is a min-heap of non-empty sequences keyed by the Seq of
// their head event.
type mergeHeap []Seq

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i][0].Seq < h[j][0].Seq }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(Seq)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
