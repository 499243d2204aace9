package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/vclock"
)

// realRT builds a runtime under Real timing with the default CPU cap —
// the configuration whose gates get the spin budget once GOMAXPROCS
// exceeds the CPU count (callers raise it with withProcs).
func realRT(t testing.TB, cpus int) *Runtime {
	return newRT(t, cpus, func(o *Options) { o.Timing = vclock.Real })
}

// busy burns d of wall time on the calling goroutine (the fixed work of
// one chunk).
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// forRange runs chunks fixed-work chunks in the shape of mutls.ForRange
// at one speculative CPU: chunk i+1 is forked, chunk i runs inline, the
// join commits the speculative chunk or re-executes it. Every chunk
// stores its index into out. It returns the number of commits.
func forRange(t0 *Thread, out mem.Addr, chunks int, work time.Duration) int {
	body := func(t *Thread, i int64) {
		busy(work)
		t.StoreInt64(out+mem.Addr(8*i), i)
	}
	ranks := make([]Rank, 1)
	commits := 0
	for i := int64(0); i < int64(chunks); i += 2 {
		h := t0.Fork(ranks, 0, Mixed)
		if h != nil {
			h.SetRegvarInt64(0, i+1)
			h.Start(func(c *Thread) uint32 {
				body(c, c.GetRegvarInt64(0))
				return 0
			})
		}
		body(t0, i)
		if h != nil && t0.Join(ranks, 0).Status == JoinCommitted {
			commits++
			continue
		}
		body(t0, i+1)
	}
	return commits
}

// checkChunks verifies that every chunk stored its index.
func checkChunks(t *testing.T, t0 *Thread, out mem.Addr, chunks int) {
	t.Helper()
	for i := 0; i < chunks; i++ {
		if got := t0.LoadInt64(out + mem.Addr(8*i)); got != int64(i) {
			t.Fatalf("chunk %d stored %d", i, got)
		}
	}
}

// TestSpinBudgetGating: only Real timing under a CPU cap, with fewer
// virtual CPUs than GOMAXPROCS, spins before parking; Virtual timing and
// RealCPUsUncapped (pooled runtimes) keep the probe-only wait.
func TestSpinBudgetGating(t *testing.T) {
	withProcs(t, 2)
	cases := []struct {
		name  string
		cpus  int
		tweak func(*Options)
		want  time.Duration
	}{
		{"real", 1, func(o *Options) { o.Timing = vclock.Real }, realSpinBudget},
		{"realExplicitCap", 1, func(o *Options) { o.Timing = vclock.Real; o.RealCPUCap = 4 }, realSpinBudget},
		{"realAtCap", 2, func(o *Options) { o.Timing = vclock.Real }, 0},
		{"realUncapped", 1, func(o *Options) { o.Timing = vclock.Real; o.RealCPUCap = RealCPUsUncapped }, 0},
		{"virtual", 1, nil, 0},
	}
	for _, tc := range cases {
		rt := newRT(t, tc.cpus, tc.tweak)
		if got := rt.drainGate.spin; got != tc.want {
			t.Errorf("%s: drain gate spin %v, want %v", tc.name, got, tc.want)
		}
		for r := 1; r <= rt.NumCPUs(); r++ {
			if got := rt.cpus[r].td.gate.spin; got != tc.want {
				t.Errorf("%s: CPU %d gate spin %v, want %v", tc.name, r, got, tc.want)
			}
		}
	}
}

// TestCloseDuringSpinWindow: Close while a worker is still spinning on its
// empty mailbox — right after construction, and right after a committed
// handoff — wakes it out of the spin and leaks no goroutine.
func TestCloseDuringSpinWindow(t *testing.T) {
	withProcs(t, 2)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		rt, err := NewRuntime(Options{NumCPUs: 1, Timing: vclock.Real})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			rt.Run(func(t0 *Thread) {
				out := t0.Alloc(16)
				if forRange(t0, out, 2, 0) != 1 {
					t.Error("handoff did not commit")
				}
				checkChunks(t, t0, out, 2)
			})
		}
		start := time.Now()
		rt.Close()
		// A lost wakeup would hang Close, not slow it; the bound only
		// guards against a Close that waits out parked workers.
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("Close took %v inside the spin window", d)
		}
	}
	// Worker goroutines exit right after wg.Done; give the scheduler a
	// moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after Close", before, after)
	}
}

// TestForkAfterSpinWindowParks: every handshake still completes once its
// waiter has outlived the spin budget and parked — the worker idle
// between runs, the child waiting for SYNC, the parent waiting for the
// verdict, and the drain waiting for a squashed child.
func TestForkAfterSpinWindowParks(t *testing.T) {
	withProcs(t, 2)
	rt := realRT(t, 1)
	if rt.cpus[1].td.gate.spin == 0 {
		t.Fatal("Real runtime got no spin budget")
	}
	parked := 20 * realSpinBudget
	run := func(childWork, parentWork time.Duration) {
		t.Helper()
		// The worker has been waiting on its mailbox since the last run.
		time.Sleep(parked)
		rt.Run(func(t0 *Thread) {
			out := t0.Alloc(16)
			ranks := make([]Rank, 1)
			h := t0.Fork(ranks, 0, Mixed)
			if h == nil {
				t.Fatal("fork refused")
			}
			h.SetRegvarAddr(0, out)
			h.Start(func(c *Thread) uint32 {
				busy(childWork)
				c.StoreInt64(c.GetRegvarAddr(0)+8, 42)
				return 0
			})
			busy(parentWork)
			if res := t0.Join(ranks, 0); res.Status != JoinCommitted {
				t.Fatalf("join %v (%v)", res.Status, res.Reason)
			}
			if got := t0.LoadInt64(out + 8); got != 42 {
				t.Fatalf("committed value %d, want 42", got)
			}
		})
	}
	run(0, parked)   // the child parks waiting for SYNC
	run(parked, 0)   // the parent parks waiting for the verdict
	run(parked/2, 0) // both, staggered
	time.Sleep(parked)
	rt.Run(func(t0 *Thread) {
		ranks := make([]Rank, 1)
		h := t0.Fork(ranks, 0, Mixed)
		if h == nil {
			t.Fatal("fork refused")
		}
		h.Start(func(c *Thread) uint32 {
			busy(parked)
			return 0
		})
		// Never joined: the drain squashes the child and parks until it
		// releases its CPU.
	})
	if !rt.Quiescent() {
		t.Fatal("runtime not quiescent after the drain")
	}
	if s := rt.Stats(); s.Commits != 3 {
		t.Fatalf("commits %d, want 3", s.Commits)
	}
}

// BenchmarkForkJoinRoundTrip prices the fork/join handoff on real cores:
// a ForRange-shaped loop (forRange) of fixed-work chunks at one
// speculative CPU under Real timing. ns/chunk is the speculative loop's
// wall time per chunk; speedup is the inline loop's time over it, whose
// ceiling at one speculative CPU is 2x. With 0 µs chunks the loop is pure
// handoff.
func BenchmarkForkJoinRoundTrip(b *testing.B) {
	const chunks = 64
	for _, work := range []time.Duration{0, 5 * time.Microsecond, 20 * time.Microsecond, 100 * time.Microsecond} {
		b.Run(fmt.Sprintf("work=%v", work), func(b *testing.B) {
			rt := realRT(b, 1)
			var inline, spec time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				start := time.Now()
				rt.Run(func(t0 *Thread) {
					out := t0.Alloc(8 * chunks)
					for c := 0; c < chunks; c++ {
						busy(work)
						t0.StoreInt64(out+mem.Addr(8*c), int64(c))
					}
				})
				inline += time.Since(start)
				rt.Recycle()
				b.StartTimer()
				start = time.Now()
				rt.Run(func(t0 *Thread) { forRange(t0, t0.Alloc(8*chunks), chunks, work) })
				spec += time.Since(start)
				b.StopTimer()
				rt.Recycle()
				b.StartTimer()
			}
			b.ReportMetric(float64(spec.Nanoseconds())/float64(b.N*chunks), "ns/chunk")
			b.ReportMetric(float64(inline)/float64(spec), "speedup")
		})
	}
}
