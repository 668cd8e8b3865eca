package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of an ascending slice by the
// nearest-rank rule, so every reported value is one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of vs and returns its middle value (the mean of
// the two middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of vs (inclusive
// linear interpolation); with fewer than two values both equal the
// median.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) < 2 {
		m := median(vs)
		return m, m
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		return s[lo] + (s[hi]-s[lo])*(x-float64(lo))
	}
	return at(0.25), at(0.75)
}

// latencies collects per-operation durations in nanoseconds.
type latencies []float64

// p returns the q-quantile scaled by 1/div (1e3 for µs, 1e6 for ms). It
// sorts l in place, which costs little once l is sorted.
func (l latencies) p(q, div float64) float64 {
	sort.Float64s(l)
	return percentile(l, q) / div
}

// interval is a half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover: the union of the children, clipped to the parent, so children
// that overlap (parallel fan-out workers) are not subtracted twice.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered, curEnd int64
	curEnd = parent.start
	for _, c := range cs {
		if c.end <= curEnd {
			continue
		}
		if c.start > curEnd {
			curEnd = c.start
		}
		covered += c.end - curEnd
		curEnd = c.end
	}
	return parent.end - parent.start - covered
}
