package core

import (
	"runtime"
	"sync"
	"time"
)

// gateSpin is the number of scheduler-yield probes a handshake wait burns
// before parking (or, with a spin budget, before its timed spin). On its
// own it is the wait of a runtime whose virtual CPUs may outnumber the
// schedulable threads — Virtual timing, RealCPUsUncapped, pooled leases:
// there a spinning waiter can occupy the very core the awaited thread
// needs, so it parks after a few scheduler quanta instead of churning the
// run queue.
const gateSpin = 64

// realSpinBudget is the timed spin a waiter adds before parking when each
// virtual CPU and the non-speculative thread have a schedulable thread of
// their own (spinBudget). Unparking a goroutine while its peer computes
// costs 60 µs or more on a 2-vCPU virtual machine — longer than a typical
// fork/join handshake gap — so a waiter that parks at once turns every
// handoff into a sleep/wake round trip and serializes both threads. The budget outlasts that wake cost;
// waits longer than it (the awaited thread still deep in its chunk, a
// worker with no next task) park as before.
const realSpinBudget = 100 * time.Microsecond

// waitGate is the one wait primitive of the runtime: a goroutine waits on
// it until a predicate over published atomics holds. Every handshake of a
// virtual CPU goes through its gate — the worker waiting for its next
// task, the worker waiting for SYNC, the parent waiting for the verdict
// and for workerDone — and the runtime drain goes through the runtime's.
// A waiter yield-spins first (gateSpin probes, then the gate's spin
// budget) and parks on a condition variable after that. The zero value is
// not ready; call init before use (NewRuntime does).
type waitGate struct {
	mu   sync.Mutex
	cond sync.Cond
	// spin is the timed spin budget after the probe prefix: 0 or
	// realSpinBudget (spinBudget). Fixed at init.
	spin time.Duration
}

func (g *waitGate) init(spin time.Duration) {
	g.cond.L = &g.mu
	g.spin = spin
}

// wait returns once pred() holds. pred must read only atomics: it is
// called both outside and inside the gate lock.
func (g *waitGate) wait(pred func() bool) {
	for i := 0; i < gateSpin; i++ {
		if pred() {
			return
		}
		runtime.Gosched()
	}
	g.idle(pred)
}

// idle is wait without the probe prefix: only the timed spin, if the gate
// has a budget, then parking. It is the wait of a worker for its next
// task, which usually comes much later than a few scheduler quanta — a
// gate without a spin budget parks it at once, leaving the cores to the
// threads that have work.
func (g *waitGate) idle(pred func() bool) {
	if g.spin > 0 {
		for start := time.Now(); time.Since(start) < g.spin; {
			if pred() {
				return
			}
			runtime.Gosched()
		}
	}
	g.mu.Lock()
	for !pred() {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// wake unparks all waiters. The caller must publish the state the
// waiters' predicates read (an atomic store) BEFORE calling wake: the
// broadcast is taken under the gate lock, so a waiter has either already
// observed the new state or is parked and receives the broadcast — the
// store-check-park gap of a bare signal cannot lose the wakeup.
func (g *waitGate) wake() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}
