package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" rule of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and how many samples lie strictly beyond that rank — the tail
// count that says whether the percentile is backed by enough data.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	} else if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// interval is a half-open time range [start, end) in milliseconds.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap one another (parallel
// workers) or stick out of the parent; only the covered part of the
// parent's own interval is subtracted.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := math.Max(c.start, parent.start), math.Min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := 0.0
	curS, curE := 0.0, -1.0
	for i, c := range clipped {
		if i == 0 || c.start > curE {
			if i > 0 {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		if c.end > curE {
			curE = c.end
		}
	}
	if len(clipped) > 0 {
		covered += curE - curS
	}
	return (parent.end - parent.start) - covered
}
