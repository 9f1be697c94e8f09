package metrics

import (
	"math"
	"testing"
	"time"
)

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Population stddev of this classic set is 2; sample stddev is
	// sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.StdDev()-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StdDev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.N() != 0 {
		t.Error("empty sample not zero")
	}
	s.Add(3)
	if s.StdDev() != 0 {
		t.Errorf("single-observation stddev = %v", s.StdDev())
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleNegativeValues(t *testing.T) {
	var s Sample
	s.Add(-5)
	s.Add(5)
	if s.Min() != -5 || s.Max() != 5 || s.Mean() != 0 {
		t.Errorf("min=%v max=%v mean=%v", s.Min(), s.Max(), s.Mean())
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if math.Abs(s.Mean()-1500) > 1e-9 {
		t.Errorf("mean ms = %v", s.Mean())
	}
}

// TestDegenerateInputsNeverNaN table-drives every accessor over the
// degenerate observation counts (0, 1, 2) plus pathological values, and
// asserts nothing surfaces as NaN, Inf, or a panic.
func TestDegenerateInputsNeverNaN(t *testing.T) {
	cases := []struct {
		name string
		obs  []float64
	}{
		{"empty", nil},
		{"single", []float64{7}},
		{"single_zero", []float64{0}},
		{"single_negative", []float64{-3.5}},
		{"pair", []float64{2, 2}},
		{"pair_distinct", []float64{1, 9}},
		{"identical_many", []float64{4, 4, 4, 4}},
		{"huge_cancellation", []float64{1e15, 1e15 + 1, 1e15 + 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Sample
			for _, x := range tc.obs {
				s.Add(x)
			}
			for name, v := range map[string]float64{
				"Sample.Mean": s.Mean(), "Sample.StdDev": s.StdDev(),
				"Sample.Min": s.Min(), "Sample.Max": s.Max(),
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
			if s.StdDev() < 0 {
				t.Errorf("negative stddev %v", s.StdDev())
			}
		})
	}
}

func TestReductionPct(t *testing.T) {
	if got := ReductionPct(200, 150); math.Abs(got-25) > 1e-12 {
		t.Errorf("got %v, want 25", got)
	}
	if got := ReductionPct(0, 10); got != 0 {
		t.Errorf("zero base: %v", got)
	}
	if got := ReductionPct(100, 120); math.Abs(got+20) > 1e-12 {
		t.Errorf("negative reduction: %v", got)
	}
}
