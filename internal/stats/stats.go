// Package stats provides the small statistical helpers the experiment
// harness uses: per-run summaries (mean, standard deviation, extrema) and
// speedup computations, mirroring how the paper reports its measurements
// (5 runs, mean and standard deviation).
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes a Summary of xs. An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// SummarizeUint64 converts and summarizes.
func SummarizeUint64(xs []uint64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// String renders "mean ± std".
func (s Summary) String() string {
	return fmt.Sprintf("%.0f ± %.0f", s.Mean, s.Std)
}

// Speedup returns baseline/value: >1 means value is faster (smaller).
func Speedup(baseline, value float64) float64 {
	if value == 0 {
		return 0
	}
	return baseline / value
}

// Reduction returns the fractional latency reduction from baseline to
// value: (baseline-value)/baseline. Positive means value is faster.
func Reduction(baseline, value float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - value) / baseline
}
