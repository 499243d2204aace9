package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// req is one scheduled request of an open loop.
type req struct {
	idx   int
	shape int           // index into the workload's shape menu
	due   time.Duration // offset from the loop's start
}

// reqResult is what happened to one request. Times are offsets from the
// loop's start.
type reqResult struct {
	req
	issued time.Duration // when the generator handed it to a connection
	sent   time.Duration // when a connection started sending it
	done   time.Duration // when the response was read and checked
	err    error

	serverMs float64 // the handler's own wall time, from the response
	degraded bool
}

// latency is measured from the due time, so a stall also charges every
// request queued behind it.
func (r reqResult) latency() time.Duration { return r.done - r.due }

// late is how far behind its schedule the generator issued the request.
func (r reqResult) late() time.Duration { return r.issued - r.due }

// schedule draws an open-loop request sequence at a constant rate per
// second over dur (evenly spaced, as a constant-throughput generator
// offers it), each request's shape drawn by weight. The same seed and
// stream give the same sequence.
func schedule(seed, stream uint64, rate float64, dur time.Duration, weights []int) []req {
	rng := rand.New(rand.NewPCG(seed, stream))
	total := 0
	for _, w := range weights {
		total += w
	}
	var out []req
	for i := 0; ; i++ {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		pick, shape := rng.IntN(total), 0
		for pick >= weights[shape] {
			pick -= weights[shape]
			shape++
		}
		out = append(out, req{idx: i, shape: shape, due: at})
	}
}

// openLoop issues each request at its due time, whatever the state of
// earlier requests, to conns connection workers that each send one
// request at a time. A request due while every connection is busy waits
// in the generator's queue, and that wait is part of its latency.
func openLoop(sched []req, conns int, send func(r req, res *reqResult)) []reqResult {
	results := make([]reqResult, len(sched))
	// Sized to the number of sends, so the generator never blocks and its
	// lateness measures only its own timer.
	queue := make(chan int, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res := &results[i]
				res.sent = time.Since(start)
				send(sched[i], res)
				res.done = time.Since(start)
			}
		}()
	}
	for i, r := range sched {
		if d := r.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		results[i].req = r
		results[i].issued = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results
}
