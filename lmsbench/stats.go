package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile is the tail percentile reported for n samples: p99 only
// when at least ten samples lie beyond it (n >= 1000), p90 otherwise.
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	return 90
}

// latency summarizes one operation type's latencies.
type latency struct {
	n     int
	p50   float64 // ms
	tailP float64 // 99 or 90
	tail  float64 // ms
}

func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	tp := tailPercentile(len(s))
	return latency{n: len(s), p50: percentile(s, 50), tailP: tp, tail: percentile(s, tp)}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ival is a half-open time interval [start, end) in nanoseconds.
type ival struct{ start, end int64 }

// unionLength returns the total length covered by ivs.
func unionLength(ivs []ival) int64 {
	s := make([]ival, 0, len(ivs))
	for _, iv := range ivs {
		if iv.end > iv.start {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	var cur ival
	for i, iv := range s {
		if i == 0 || iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// layerSelf attributes every instant of op to the deepest layer with an
// interval covering it. layers[0] is the shallowest layer below the
// operation itself; intervals are clipped to op. The result has one entry
// more than layers: entry 0 is the operation's unattributed remainder,
// entry d+1 the self time of layers[d]. The entries sum to op's length: a
// layer's self time is its covered time minus the time its deeper layers
// cover, with overlapping siblings counted once.
func layerSelf(op ival, layers [][]ival) []int64 {
	covered := make([]int64, len(layers)+2) // covered[d]: union of layers d-1 and deeper
	covered[0] = op.end - op.start
	var acc []ival
	for d := len(layers) - 1; d >= 0; d-- {
		for _, iv := range layers[d] {
			if iv.start < op.start {
				iv.start = op.start
			}
			if iv.end > op.end {
				iv.end = op.end
			}
			acc = append(acc, iv)
		}
		covered[d+1] = unionLength(acc)
	}
	self := make([]int64, len(layers)+1)
	for d := range self {
		self[d] = covered[d] - covered[d+1]
	}
	return self
}
