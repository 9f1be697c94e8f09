// Package metrics provides the small statistics toolkit the benchmark
// harness uses to aggregate per-trial measurements: online mean and
// standard deviation (Welford), min/max tracking, and percentage
// reduction helpers for the paper's "MSA saves X% over RSA" claims.
package metrics

import (
	"math"
	"time"
)

// Sample accumulates observations with Welford's online algorithm.
// The zero value is ready to use.
type Sample struct {
	n               int
	mean, m2        float64
	minV, maxV      float64
	hasObservations bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasObservations || x < s.minV {
		s.minV = x
	}
	if !s.hasObservations || x > s.maxV {
		s.maxV = x
	}
	s.hasObservations = true
}

// AddDuration records a duration in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the observation count.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 with no observations).
func (s *Sample) Mean() float64 { return s.mean }

// StdDev returns the sample standard deviation (n-1 denominator). It
// is 0 for fewer than two observations, and floating-point cancellation
// in the Welford accumulator can never surface as NaN: a (tiny)
// negative second moment is clamped to zero.
func (s *Sample) StdDev() float64 {
	if s.n < 2 || s.m2 <= 0 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 with no observations).
func (s *Sample) Min() float64 { return s.minV }

// Max returns the largest observation (0 with no observations).
func (s *Sample) Max() float64 { return s.maxV }

// ReductionPct returns how much smaller `ours` is than `base`, as a
// percentage of base: 100*(base-ours)/base. Zero base yields zero.
func ReductionPct(base, ours float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - ours) / base
}
