package main

import (
	"maps"
	"math"
	"slices"
)

// median returns the median of xs (0 for none).
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

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points that divide xs into quarters,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so the spread summary agrees with any
// Python-side check of the same values.  It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := slices.Sorted(slices.Values(xs))
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		cut[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut[0], cut[1], cut[2], true
}

// tailPercentile returns the nearest-rank q-quantile (0 < q < 1) of the
// sorted samples and whether at least minBeyond samples lie beyond it.  A
// tail percentile is only worth gating when enough samples sit past it:
// p90 with 100 samples beyond needs at least 1000 samples.
func tailPercentile(sorted []float64, q float64, minBeyond int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n-rank >= minBeyond
}

// span is one timed call the benchmark made into a layer: its name, its
// interval in nanoseconds since the trace began, its parent span (0 for a
// root) and the request it served.  Attrs carries counts measured at the
// same boundary (instructions, allocations, bytes).
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Req    int              `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// dur returns the span's duration in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// selfTime returns the part of parent's interval that none of its children
// cover: its duration minus the union of the children's intervals clipped to
// the parent, so overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 { return slices.Sorted(slices.Values(xs)) }

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
