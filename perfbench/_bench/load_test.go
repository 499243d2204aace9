package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	w := []int{1, 1, 2}
	a := schedule(7, 1, 500, time.Second, w)
	b := schedule(7, 1, 500, time.Second, w)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two request sequences")
	}
	if c := schedule(8, 1, 500, time.Second, w); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same request sequence")
	}
	// 500/s over 1s: 500 requests 2ms apart, shapes by weight.
	if n := len(a); n != 500 || a[1].due != 2*time.Millisecond {
		t.Fatalf("%d requests at 500/s over 1s", n)
	}
	counts := make([]int, len(w))
	for i, r := range a {
		if r.idx != i || (i > 0 && r.due < a[i-1].due) || r.due >= time.Second {
			t.Fatalf("request %d out of order: %+v", i, r)
		}
		counts[r.shape]++
	}
	if counts[2] < counts[0] || counts[2] < counts[1] {
		t.Errorf("shape counts %v ignore the weights %v", counts, w)
	}
}

// TestOpenLoopChargesStallFromDueTime stalls one request on a single
// connection: every request due during the stall must carry the wait
// behind it in its latency, because latency runs from the due time, not
// from when a connection became free.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var sched []req
	for i := 0; i < 6; i++ {
		sched = append(sched, req{idx: i, due: time.Duration(i) * 20 * time.Millisecond})
	}
	results := openLoop(sched, 1, func(r req, res *reqResult) {
		if r.idx == 0 {
			time.Sleep(stall)
		}
	})
	if got := results[0].latency(); got < stall {
		t.Fatalf("stalled request latency %v < stall %v", got, stall)
	}
	for _, r := range results[1:] {
		// Request i is due at 20i ms but cannot start before the stall
		// ends at 150 ms.
		if want := stall - r.due; r.latency() < want {
			t.Errorf("request %d due at %v: latency %v, want at least %v", r.idx, r.due, r.latency(), want)
		}
		if r.sent < stall {
			t.Errorf("request %d sent at %v, before the stall ended", r.idx, r.sent)
		}
		// The generator itself kept to its schedule.
		if r.late() > 50*time.Millisecond {
			t.Errorf("request %d issued %v late", r.idx, r.late())
		}
	}
}

func TestOpenLoopUsesAllConnections(t *testing.T) {
	var sched []req
	for i := 0; i < 4; i++ {
		sched = append(sched, req{idx: i})
	}
	results := openLoop(sched, 2, func(r req, res *reqResult) { time.Sleep(50 * time.Millisecond) })
	// Two connections serve four simultaneous requests in two waves.
	var waves [2]int
	for _, r := range results {
		if r.latency() < 90*time.Millisecond {
			waves[0]++
		} else {
			waves[1]++
		}
	}
	if waves != [2]int{2, 2} {
		t.Errorf("latencies fall in waves %v, want [2 2]", waves)
	}
}
