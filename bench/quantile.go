package main

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// minBeyond is how many values must lie above a quantile before it is
// published: a p99 drawn from 300 values is really the third-largest
// value, and reporting it as a p99 would hide how few points stand
// behind it.
const minBeyond = 10

// Latencies are counted, not sampled: every value lands in a log-linear
// histogram whose buckets hold one value each below histSub and are
// 1/histSub of their value wide above it, so a quantile is the
// nearest-rank value to within 0.4%, taken over every op. A histogram's
// size is fixed, so the benchmark's memory does not grow with the
// throughput it measures. (A reservoir of 200,000 samples, split over
// the windows, left a window's p99 resting on about 80 samples; that
// sampling error was half the window-to-window spread of fanout-fleet's
// p99.)
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp bounds the values told apart: from 2^(histMaxExp+8) ns,
	// over two hours, all share the last bucket.
	histMaxExp  = 35
	histBuckets = (histMaxExp + 2) * histSub
)

// hist counts non-negative values. It is owned by one goroutine; lanes
// keep their own and merge them at the end.
type hist struct {
	counts [histBuckets]uint32
	n, sum int64
}

// add counts one value. A nil hist ignores it, so untimed loads
// (warm-up) share the timed code path.
func (h *hist) add(v int64) {
	if h == nil {
		return
	}
	v = max(v, 0)
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

// merge adds o's counts to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mergeHists sums hs into a new histogram.
func mergeHists(hs ...*hist) *hist {
	out := new(hist)
	for _, h := range hs {
		out.merge(h)
	}
	return out
}

// histIndex returns the bucket of v: v itself below histSub, else the
// power of two of v and its histSubBits leading bits after the first.
func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e+1)<<histSubBits + int(v>>e) - histSub
}

// histValue returns the middle of bucket i's values.
func histValue(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := i>>histSubBits - 1
	lo := int64(i&(histSub-1)+histSub) << e
	return lo + (int64(1)<<e-1)/2
}

// quantile publishes the nearest-rank p-quantile — the smallest value
// with at least a share p of the values at or below it — or explains
// why it cannot: no values, or fewer than minBeyond above it.
func (h *hist) quantile(p float64) (int64, error) {
	if h.n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := max(1, min(int64(math.Ceil(p*float64(h.n))), h.n))
	if beyond := h.n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("only %d of %d samples lie above p%g, need %d", beyond, h.n, p*100, minBeyond)
	}
	var seen int64
	for i, c := range h.counts {
		if seen += int64(c); seen >= rank {
			return histValue(i), nil
		}
	}
	panic("unreachable: counts sum to n")
}

// mean returns the arithmetic mean of the values (0 when empty).
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
