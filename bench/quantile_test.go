package main

import (
	"math"
	"testing"
)

// ascending counts the values 1..n.
func ascending(n int) *hist {
	h := new(hist)
	for i := 1; i <= n; i++ {
		h.add(int64(i))
	}
	return h
}

func TestNearestRank(t *testing.T) {
	h := ascending(100)
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{0.001, 1},
		{0.50, 50},
		{0.501, 51},
		{0.89, 89},
	} {
		if v, err := h.quantile(c.p); err != nil || v != c.want {
			t.Errorf("quantile(1..100, %g) = %d, %v; want %d", c.p, v, err, c.want)
		}
	}
}

func TestQuantilePublishesOnlyWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   int64
		reject bool
	}{
		{1000, 0.99, 990, false}, // exactly ten above rank 990
		{999, 0.99, 0, true},     // rank 990 of 999: nine above
		{100, 0.99, 0, true},
		{20, 0.50, 10, false},
		{19, 0.50, 0, true},
		{0, 0.50, 0, true},
	} {
		got, err := ascending(c.n).quantile(c.p)
		if c.reject {
			if err == nil {
				t.Errorf("n=%d p%g: published %d, want a refusal", c.n, c.p*100, got)
			}
			continue
		}
		// Above histSub a value is known to within its bucket.
		if err != nil || math.Abs(float64(got-c.want)) > float64(c.want)/histSub {
			t.Errorf("n=%d p%g = %d, %v; want %d", c.n, c.p*100, got, err, c.want)
		}
	}
}

// TestHistBuckets checks that every value's bucket reads back as the
// value to within half a bucket — exactly below histSub — that buckets
// grow with their values, and that huge values share the last bucket.
func TestHistBuckets(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 257, 1000, 1 << 20, 123_456_789, 1 << 42} {
		i := histIndex(v)
		if i < last || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d", v, i, last)
		}
		last = i
		got := histValue(i)
		if v < histSub && got != v {
			t.Errorf("histValue(histIndex(%d)) = %d, want exact", v, got)
		}
		if math.Abs(float64(got-v)) > float64(v)/(2*histSub) {
			t.Errorf("histValue(histIndex(%d)) = %d, off by more than half a bucket", v, got)
		}
	}
	if histIndex(math.MaxInt64) != histBuckets-1 {
		t.Errorf("histIndex(MaxInt64) = %d, want the last bucket %d", histIndex(math.MaxInt64), histBuckets-1)
	}
	var nilHist *hist
	nilHist.add(1) // a nil hist times nothing and must not panic
}

func TestMergeHists(t *testing.T) {
	busy, quiet := new(hist), new(hist)
	for i := 0; i < 90; i++ {
		busy.add(1)
	}
	for i := 0; i < 10; i++ {
		quiet.add(100)
	}
	m := mergeHists(busy, quiet)
	if m.n != 100 || m.mean() != 10.9 {
		t.Errorf("merged %d values, mean %g; want 100, 10.9", m.n, m.mean())
	}
	if v, err := m.quantile(0.89); err != nil || v != 1 {
		t.Errorf("p89 = %d, %v; want 1", v, err)
	}
	if got := mergeHists(); got.n != 0 || got.mean() != 0 {
		t.Errorf("merge of nothing = %d values", got.n)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
