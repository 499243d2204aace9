package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 90, 90, 10},
		{100, 99, 99, 1},
		{1000, 99, 990, 10},
		{10, 50, 5, 5},
		{1, 99, 1, 0},
		{7, 100, 7, 0},
	}
	for _, c := range cases {
		got, beyond := percentile(seq(c.n), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..%d, %v) = %v (%d beyond), want %v (%d beyond)", c.n, c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, b)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, // 10 beyond
		{99, 90, false}, // rank 90 leaves 9
		{1000, 99, true},
		{999, 99, false},
		{20, 50, true},
		{19, 50, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
		_, beyond := percentile(seq(c.n), c.p)
		if (beyond >= minBeyond) != c.want {
			t.Errorf("n=%d p%v: %d beyond disagrees with tailSupported", c.n, c.p, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	// Scaling one kernel by k scales the geomean by k^(1/n), whichever
	// kernel it is: no kernel dominates.
	a := geomean([]float64{2, 10, 50})
	b := geomean([]float64{2, 10, 100})
	c := geomean([]float64{4, 10, 50})
	if math.Abs(b/a-c/a) > 1e-12 {
		t.Errorf("geomean weights kernels unequally: %v vs %v", b/a, c/a)
	}
	if got := geomean([]float64{1, 0, 2}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
}

func TestGrowingBacklog(t *testing.T) {
	step := 100 * time.Millisecond
	flat := []float64{1, 2, 0, 1, 2, 1, 0, 2, 1, 1}
	if growingBacklog(flat, step, 300, 2) {
		t.Error("a backlog bounded by the connections reads as growing")
	}
	noisy := []float64{3, 9, 2, 8, 3, 9, 2, 7, 4, 6}
	if growingBacklog(noisy, step, 300, 2) {
		t.Error("a noisy but flat backlog reads as growing")
	}
	// 450 offered against 300 served: the queue grows by 150/s.
	var over []float64
	for i := 0; i < 10; i++ {
		over = append(over, 2+15*float64(i))
	}
	if !growingBacklog(over, step, 450, 2) {
		t.Error("a queue growing at a third of the rate reads as steady")
	}
	// Growth that ends drained (a burst absorbed before the rung ends).
	burst := []float64{1, 10, 20, 30, 20, 10, 3, 2, 1, 1}
	if growingBacklog(burst, step, 300, 2) {
		t.Error("an absorbed burst reads as growing")
	}
}

func TestBacklogSeries(t *testing.T) {
	ms := time.Millisecond
	// Three requests: one done before the first sample, one still queued
	// at the second sample, one due after the first sample.
	due := []time.Duration{0, 10 * ms, 60 * ms}
	done := []time.Duration{5 * ms, 120 * ms, 70 * ms}
	got := backlogSeries(due, done, 100*ms, 2)
	if got[0] != 1 || got[1] != 1 {
		t.Errorf("backlogSeries = %v, want [1 1]", got)
	}
}

func TestMaxRateSLOInterpolates(t *testing.T) {
	limit := ms(latencyLimit)
	rungs := []rung{
		{Rate: 100, P99Ms: limit / 4, Meets: true},
		{Rate: 200, P99Ms: limit / 2, Meets: true},
		{Rate: 300, P99Ms: limit * 3 / 2},
	}
	// The limit sits halfway between 200's and 300's p99.
	if got := maxRateSLO(rungs); math.Abs(got-250) > 1e-9 {
		t.Errorf("maxRateSLO = %v, want 250", got)
	}
	rungs[2].Growing = true
	if got := maxRateSLO(rungs); got != 200 {
		t.Errorf("with a growing backlog maxRateSLO = %v, want 200", got)
	}
	if got := maxRateSLO(rungs[:2]); got != 200 {
		t.Errorf("all rungs meet: maxRateSLO = %v, want the top rung", got)
	}
}
