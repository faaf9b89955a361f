package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !approx(s.Mean, 5) {
		t.Fatalf("summary = %+v", s)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("extrema = %v..%v", s.Min, s.Max)
	}
	// Sample std of this classic set is sqrt(32/7).
	if !approx(s.Std, math.Sqrt(32.0/7.0)) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEdge(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty = %+v", s)
	}
	if s := Summarize([]float64{3}); s.Std != 0 || s.Mean != 3 {
		t.Fatalf("single = %+v", s)
	}
}

func TestSummarizeUint64(t *testing.T) {
	s := SummarizeUint64([]uint64{1, 2, 3})
	if !approx(s.Mean, 2) {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestSpeedupReduction(t *testing.T) {
	if got := Speedup(200, 100); !approx(got, 2) {
		t.Fatalf("speedup = %v", got)
	}
	if got := Reduction(200, 100); !approx(got, 0.5) {
		t.Fatalf("reduction = %v", got)
	}
	if Speedup(1, 0) != 0 || Reduction(0, 1) != 0 {
		t.Fatal("division guards failed")
	}
}

func TestSummaryProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
