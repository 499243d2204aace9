package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a tail percentile resting on fewer samples is one outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and the number of samples strictly beyond its rank. xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailSupported reports whether n samples leave at least minBeyond
// samples beyond the p-th percentile.
func tailSupported(n int, p float64) bool {
	return n-int(math.Ceil(p/100*float64(n))) >= minBeyond
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// geomean is the geometric mean of xs; every value must be positive (a
// zero or negative value yields 0, which no end-to-end metric may read).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// backlogSeries samples the open-loop backlog — requests due but not yet
// completed — at k evenly spaced instants over (0, horizon]. due and done
// are offsets from the rung's start, one pair per request.
func backlogSeries(due, done []time.Duration, horizon time.Duration, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		at := horizon * time.Duration(i+1) / time.Duration(k)
		n := 0
		for j := range due {
			if due[j] <= at && done[j] > at {
				n++
			}
		}
		out[i] = float64(n)
	}
	return out
}

// growingBacklog reports whether a backlog series sampled every step
// grows faster than 5% of the offered rate, past the few requests that
// are normally in flight: the sign that the rate exceeds capacity and the
// queue would grow without bound, whatever the rung's percentiles say.
func growingBacklog(series []float64, step time.Duration, rate float64, inFlight int) bool {
	n := len(series)
	if n < 2 || series[n-1] <= float64(2*inFlight) {
		return false
	}
	var sx, sy, sxx, sxy float64
	for i, y := range series {
		x := float64(i) * step.Seconds()
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	slope := (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	return slope > 0.05*rate
}
