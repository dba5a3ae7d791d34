// Package experiment implements the paper's evaluation (§4): the
// robustness experiment E1 (inject every fault kind from the §2.2
// taxonomy, measure detection coverage — RunCoverage), the performance
// experiment E2 (Table 1 — overhead ratio of the augmented monitor
// versus the bare monitor at different checking intervals —
// RunOverhead) and the structural reproduction E3 (Figure 1 — the
// wiring of the augmented monitor construct — Figure1). Both the
// command-line tools and the benchmark suite call into this package so
// every reported number comes from one code path. The performance gate
// is the end-to-end benchmark in bench/, not this package.
package experiment

import (
	"fmt"
	"math"
	"time"
)

// Sample accumulates duration observations for one measurement cell.
type Sample struct {
	values []time.Duration
}

// Add appends one observation.
func (s *Sample) Add(d time.Duration) { s.values = append(s.values, d) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.values {
		sum += v
	}
	return sum / time.Duration(len(s.values))
}

// Stddev returns the sample standard deviation (0 for n < 2).
func (s *Sample) Stddev() time.Duration {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, v := range s.values {
		d := float64(v) - mean
		acc += d * d
	}
	return time.Duration(math.Sqrt(acc / float64(n-1)))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	min := s.values[0]
	for _, v := range s.values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	max := s.values[0]
	for _, v := range s.values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Ratio returns a/b as a float (NaN-free: 0 when b is 0).
func Ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// FormatRatio renders a ratio with three decimals, as Table 1 does.
func FormatRatio(r float64) string { return fmt.Sprintf("%.3f", r) }
