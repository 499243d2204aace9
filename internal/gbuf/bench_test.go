package gbuf

import (
	"testing"

	"repro/internal/mem"
)

// Micro-benchmarks guarding the per-access and per-range cost of every
// backend (run with -benchmem: the range hot paths must stay alloc-free in
// steady state). Each iteration moves 1 KiB (128 words) through the buffer;
// the word-loop variants are the pre-bulk cost for comparison.

const benchWords = 128 // 1 KiB

func benchBackend(b *testing.B, name string) Backend {
	b.Helper()
	arena, err := mem.NewArena(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	be, err := NewBackend(arena, Config{Backend: name}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	return be
}

func forEachBenchBackend(b *testing.B, fn func(b *testing.B, be Backend)) {
	for _, name := range Backends() {
		name := name
		b.Run(name, func(b *testing.B) {
			be := benchBackend(b, name)
			b.SetBytes(benchWords * mem.Word)
			b.ReportAllocs()
			fn(b, be)
		})
	}
}

func BenchmarkStoreRange1KiB(b *testing.B) {
	src := make([]byte, benchWords*mem.Word)
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		be.StoreRange(64, src) // steady state: the set is warm after this
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := be.StoreRange(64, src); st != OK {
				b.Fatal(st)
			}
		}
	})
}

func BenchmarkStoreWordLoop1KiB(b *testing.B) {
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < benchWords; k++ {
				if st := be.Store(64+mem.Addr(k*mem.Word), mem.Word, uint64(k)); st != OK {
					b.Fatal(st)
				}
			}
		}
	})
}

// BenchmarkLoadRange1KiB prices one 1 KiB LoadRange per op in the
// read-set states the kernels produce:
//
//   - warm: every word is already in the read set (a re-read);
//   - cold: first touch, with a Finalize in every op;
//   - reread-disjoint-writes: a warm read set while the write set holds
//     1 KiB elsewhere (md re-reading its positions while it buffers
//     forces).
func BenchmarkLoadRange1KiB(b *testing.B) {
	dst := make([]byte, benchWords*mem.Word)
	src := make([]byte, benchWords*mem.Word)
	shapes := []struct {
		name     string
		prime    func(be Backend) // state before the timer starts
		finalize bool             // Finalize after every load
	}{
		{"warm", func(be Backend) { be.LoadRange(64, dst) }, false},
		{"cold", func(Backend) {}, true},
		{"reread-disjoint-writes", func(be Backend) {
			be.StoreRange(1<<16, src)
			be.LoadRange(64, dst)
		}, false},
	}
	for _, name := range Backends() {
		b.Run(name, func(b *testing.B) {
			for _, sh := range shapes {
				b.Run(sh.name, func(b *testing.B) {
					be := benchBackend(b, name)
					b.SetBytes(benchWords * mem.Word)
					b.ReportAllocs()
					sh.prime(be)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if st := be.LoadRange(64, dst); st != OK {
							b.Fatal(st)
						}
						if sh.finalize {
							be.Finalize()
						}
					}
				})
			}
		})
	}
}

func BenchmarkLoadWordLoop1KiB(b *testing.B) {
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < benchWords; k++ {
				if _, st := be.Load(64+mem.Addr(k*mem.Word), mem.Word); st != OK {
					b.Fatal(st)
				}
			}
		}
	})
}

// BenchmarkSpeculationCycle1KiB measures the full store/validate/commit/
// finalize cycle with range accesses — the whole-speculation cost the
// range-aware walks are for.
func BenchmarkSpeculationCycle1KiB(b *testing.B) {
	buf := make([]byte, benchWords*mem.Word)
	forEachBenchBackend(b, func(b *testing.B, be Backend) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be.LoadRange(4096, buf)
			be.StoreRange(64, buf)
			if !be.Validate() {
				b.Fatal("validation failed")
			}
			be.Commit()
			be.Finalize()
		}
	})
}

// TestRangeHotPathAllocFree asserts the acceptance criterion directly:
// steady-state LoadRange/StoreRange allocate nothing on any backend.
func TestRangeHotPathAllocFree(t *testing.T) {
	for _, name := range Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			arena, err := mem.NewArena(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			be, err := NewBackend(arena, Config{Backend: name}.WithDefaults())
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, benchWords*mem.Word)
			// Warm the sets: lazily allocated pages/entries settle here.
			be.StoreRange(64, buf)
			be.LoadRange(4096, buf)
			allocs := testing.AllocsPerRun(100, func() {
				if st := be.StoreRange(64, buf); st != OK {
					t.Fatal(st)
				}
				if st := be.LoadRange(4096, buf); st != OK {
					t.Fatal(st)
				}
			})
			if allocs != 0 {
				t.Fatalf("range hot path allocates %.1f objects per op", allocs)
			}
		})
	}
}
