package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// p90 of 1..999 is the 900th value with 99 beyond: too few for 100.
	if v, ok := tailPercentile(seq(999), 0.90, 100); ok || v != 900 {
		t.Errorf("999 samples: got %v, %v; want 900, unresolved", v, ok)
	}
	// 1..1000 puts exactly 100 samples beyond p90.
	if v, ok := tailPercentile(seq(1000), 0.90, 100); !ok || v != 900 {
		t.Errorf("1000 samples: got %v, %v; want 900, resolved", v, ok)
	}
	if v, ok := tailPercentile(seq(10), 0.50, 0); !ok || v != 5 {
		t.Errorf("median of 1..10: got %v, %v; want 5", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.90, 0); ok {
		t.Error("empty sample resolved")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1.5}, [3]float64{0.625, 3.25, 5.875}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value resolved")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50},
		{Start: 10, End: 30}, // overlaps the first
		{Start: 60, End: 70},
		{Start: 62, End: 65},   // nested in the third
		{Start: 90, End: 120},  // runs past the parent: clipped to 90..100
		{Start: 130, End: 140}, // outside the parent
	}
	// Covered: 10..50, 60..70 and 90..100, 60 ns in all.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}
