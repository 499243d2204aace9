package gbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// This file is the bulk-path oracle: LoadRange/StoreRange must be
// observationally identical to a word-at-a-time Load/Store loop on every
// backend — same statuses, same read/write sets, same counters, same
// validation outcome and same committed arena bytes — including ranges
// that straddle bitmap page boundaries and ranges that run into openaddr
// hash conflicts and overflow exhaustion.

// refLoadRange is the word-at-a-time reference for LoadRange: it stops at
// the first Full (the caller would roll back there) and folds the per-word
// statuses into the worst outcome.
func refLoadRange(b Backend, p mem.Addr, dst []byte) Status {
	if len(dst)%mem.Word != 0 || !mem.Aligned(p, mem.Word) {
		return Misaligned
	}
	st := OK
	for k := 0; k+mem.Word <= len(dst); k += mem.Word {
		v, s := b.Load(p+mem.Addr(k), mem.Word)
		if s == Full {
			return Full
		}
		st = worse(st, s)
		binary.LittleEndian.PutUint64(dst[k:], v)
	}
	return st
}

// refStoreRange is the word-at-a-time reference for StoreRange.
func refStoreRange(b Backend, p mem.Addr, src []byte) Status {
	if len(src)%mem.Word != 0 || !mem.Aligned(p, mem.Word) {
		return Misaligned
	}
	st := OK
	for k := 0; k+mem.Word <= len(src); k += mem.Word {
		s := b.Store(p+mem.Addr(k), mem.Word, binary.LittleEndian.Uint64(src[k:]))
		if s == Full {
			return Full
		}
		st = worse(st, s)
	}
	return st
}

// bulkStressConfigs sizes every backend small enough that random scripts
// hit hash conflicts, overflow exhaustion and page-boundary straddling.
func bulkStressConfigs() map[string]Config {
	return map[string]Config{
		"openaddr":            {Backend: "openaddr", LogWords: 6, OverflowCap: 4},
		"openaddr/nooverflow": {Backend: "openaddr", LogWords: 6, OverflowCap: NoOverflow},
		"bitmap":              {Backend: "bitmap", PageWords: 8},
	}
}

const bulkArenaBytes = 1 << 12

func newSeededArena(t *testing.T, rng *rand.Rand) *mem.Arena {
	t.Helper()
	a, err := mem.NewArena(bulkArenaBytes)
	if err != nil {
		t.Fatal(err)
	}
	for p := mem.Addr(mem.Word); p < mem.Addr(bulkArenaBytes); p += mem.Word {
		a.WriteWord(p, rng.Uint64())
	}
	return a
}

// refStoreFill is the word-at-a-time reference for StoreFill.
func refStoreFill(b Backend, p mem.Addr, nWords int, v uint64) Status {
	src := make([]byte, nWords*mem.Word)
	fillWords(src, v)
	return refStoreRange(b, p, src)
}

// bulkPair drives one bulk buffer and one word-at-a-time reference buffer
// over identically seeded arenas and requires observational equivalence
// after every operation and at the end of every speculation cycle. Both
// buffers live across cycles, so a Finalize that leaves state behind shows
// up in the cycles after it.
type bulkPair struct {
	t                   *testing.T
	bulk, ref           Backend
	arenaBulk, arenaRef *mem.Arena
	dead                bool // a Full was observed: the thread must roll back
}

func newBulkPair(t *testing.T, cfg Config, arenaSeed int64) *bulkPair {
	t.Helper()
	x := &bulkPair{t: t}
	x.arenaBulk = newSeededArena(t, rand.New(rand.NewSource(arenaSeed)))
	x.arenaRef = newSeededArena(t, rand.New(rand.NewSource(arenaSeed)))
	var err error
	if x.bulk, err = NewBackend(x.arenaBulk, cfg.WithDefaults()); err != nil {
		t.Fatal(err)
	}
	if x.ref, err = NewBackend(x.arenaRef, cfg.WithDefaults()); err != nil {
		t.Fatal(err)
	}
	return x
}

// bulkOp is one scripted access; only the fields its kind uses matter.
type bulkOp struct {
	kind   bulkOpKind
	p      mem.Addr
	size   int    // word load/store: access size in bytes
	nWords int    // range ops
	v      uint64 // word store and fill value
	src    []byte // range store data (nWords words)
}

type bulkOpKind uint8

const (
	opStore bulkOpKind = iota
	opLoad
	opStoreRange
	opLoadRange
	opStoreFill
	opArenaWrite // a non-speculative write lands in both arenas
)

func (x *bulkPair) do(ctx string, op bulkOp) {
	t := x.t
	t.Helper()
	var s1, s2 Status
	switch op.kind {
	case opStore:
		s1, s2 = x.bulk.Store(op.p, op.size, op.v), x.ref.Store(op.p, op.size, op.v)
	case opLoad:
		var v1, v2 uint64
		v1, s1 = x.bulk.Load(op.p, op.size)
		v2, s2 = x.ref.Load(op.p, op.size)
		if s1 == s2 && s1 != Full && v1 != v2 {
			t.Fatalf("%s: word load %#x != %#x", ctx, v1, v2)
		}
	case opStoreRange:
		s1, s2 = x.bulk.StoreRange(op.p, op.src), refStoreRange(x.ref, op.p, op.src)
	case opLoadRange:
		d1 := make([]byte, op.nWords*mem.Word)
		d2 := make([]byte, op.nWords*mem.Word)
		s1, s2 = x.bulk.LoadRange(op.p, d1), refLoadRange(x.ref, op.p, d2)
		if s1 == s2 && s1 != Full && !bytes.Equal(d1, d2) {
			t.Fatalf("%s: range load\n bulk % x\n ref  % x", ctx, d1, d2)
		}
	case opStoreFill:
		s1, s2 = x.bulk.StoreFill(op.p, op.nWords, op.v), refStoreFill(x.ref, op.p, op.nWords, op.v)
	case opArenaWrite:
		x.arenaBulk.WriteWord(op.p, op.v)
		x.arenaRef.WriteWord(op.p, op.v)
	}
	if s1 != s2 {
		t.Fatalf("%s: op %+v status %v != %v", ctx, op, s1, s2)
	}
	x.dead = x.dead || s1 == Full
	if x.bulk.MustStop() != x.ref.MustStop() {
		t.Fatalf("%s: MustStop %v != %v", ctx, x.bulk.MustStop(), x.ref.MustStop())
	}
}

// endCycle compares the sets and counters, then ends the speculation: a
// validated commit when commit is set and no Full was seen, otherwise a
// rollback. Both buffers are finalized and must come out empty.
func (x *bulkPair) endCycle(ctx string, commit bool) {
	t := x.t
	t.Helper()
	if r1, r2 := x.bulk.ReadSetSize(), x.ref.ReadSetSize(); r1 != r2 {
		t.Fatalf("%s: read set size %d != %d", ctx, r1, r2)
	}
	if w1, w2 := x.bulk.WriteSetSize(), x.ref.WriteSetSize(); w1 != w2 {
		t.Fatalf("%s: write set size %d != %d", ctx, w1, w2)
	}
	if c1, c2 := *x.bulk.Counters(), *x.ref.Counters(); c1 != c2 {
		t.Fatalf("%s: counters\n bulk %+v\n ref  %+v", ctx, c1, c2)
	}
	if commit && !x.dead {
		v1, v2 := x.bulk.Validate(), x.ref.Validate()
		if v1 != v2 {
			t.Fatalf("%s: validate %v != %v", ctx, v1, v2)
		}
		if v1 {
			x.bulk.Commit()
			x.ref.Commit()
		}
		if c1, c2 := *x.bulk.Counters(), *x.ref.Counters(); c1 != c2 {
			t.Fatalf("%s: post-commit counters\n bulk %+v\n ref  %+v", ctx, c1, c2)
		}
		for p := mem.Addr(mem.Word); p < mem.Addr(bulkArenaBytes); p += mem.Word {
			if a, b := x.arenaBulk.ReadWord(p), x.arenaRef.ReadWord(p); a != b {
				t.Fatalf("%s: committed arena word %d: %#x != %#x", ctx, p, a, b)
			}
		}
	}
	x.bulk.Finalize()
	x.ref.Finalize()
	requireFresh(t, ctx, x.bulk)
	requireFresh(t, ctx, x.ref)
	x.dead = false
}

// requireFresh fails unless a finalized backend holds no buffered words,
// no parked words and no marks: the state every later claim relies on.
func requireFresh(t *testing.T, ctx string, be Backend) {
	t.Helper()
	if be.ReadSetSize() != 0 || be.WriteSetSize() != 0 || be.MustStop() {
		t.Fatalf("%s: finalize left sets %d/%d, MustStop %v",
			ctx, be.ReadSetSize(), be.WriteSetSize(), be.MustStop())
	}
	switch v := be.(type) {
	case *Buffer:
		for _, m := range []*hashMap{&v.read, &v.write} {
			for i, a := range m.addrs {
				if a != mem.NilAddr {
					t.Fatalf("%s: finalize left slot %d claimed by %d", ctx, i, a)
				}
			}
			for i, mk := range m.mark {
				if mk != 0 {
					t.Fatalf("%s: finalize left mark byte %d set", ctx, i)
				}
			}
		}
	case *bitmapBuffer:
		for _, s := range []*bitmapSet{&v.read, &v.write} {
			for _, pg := range s.free {
				for _, bits := range pg.present {
					if bits != 0 {
						t.Fatalf("%s: finalize left presence bits on page %d", ctx, pg.pageIdx)
					}
				}
				for _, mk := range pg.mark {
					if mk != 0 {
						t.Fatalf("%s: finalize left marks on page %d", ctx, pg.pageIdx)
					}
				}
			}
		}
	}
}

// TestBulkMatchesWordAtATime drives random access scripts through a bulk
// buffer and a word-at-a-time reference buffer over identically seeded
// arenas and requires observational equivalence at every step and at the
// end of every speculation cycle.
func TestBulkMatchesWordAtATime(t *testing.T) {
	for name, cfg := range bulkStressConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 20; seed++ {
				runBulkScript(t, cfg, seed)
			}
		})
	}
}

// bulkCycles is the number of speculations each seed runs on the same two
// buffers; each ends in a commit or a rollback, then Finalize.
const bulkCycles = 4

func runBulkScript(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := newBulkPair(t, cfg, seed^0x5DEECE66D)

	// Addresses live in a small window so slots collide; ranges up to 32
	// words straddle several 8-word bitmap pages and wrap hash-map regions.
	randWordAddr := func() mem.Addr {
		return mem.Addr(mem.Word * (1 + rng.Intn(200)))
	}
	sizes := []int{1, 2, 4, 8}
	for cycle := 0; cycle < bulkCycles; cycle++ {
		for step := 0; step < 300 && !x.dead; step++ {
			ctx := fmt.Sprintf("cfg=%+v seed=%d cycle=%d step=%d", cfg, seed, cycle, step)
			op := bulkOp{kind: bulkOpKind(rng.Intn(6)), p: randWordAddr(), v: rng.Uint64()}
			switch op.kind {
			case opStore, opLoad:
				op.size = sizes[rng.Intn(len(sizes))]
				op.p += mem.Addr(rng.Intn(mem.Word/op.size) * op.size)
			case opStoreRange:
				op.src = make([]byte, rng.Intn(33)*mem.Word)
				rng.Read(op.src)
			case opLoadRange, opStoreFill:
				op.nWords = rng.Intn(33)
			}
			x.do(ctx, op)
		}
		// One cycle in four rolls back even when it could commit.
		x.endCycle(fmt.Sprintf("cfg=%+v seed=%d cycle=%d", cfg, seed, cycle), rng.Intn(4) != 0)
	}
}

// TestBulkScriptedOpenaddrShapes pins the openaddr walk's edge shapes that
// random scripts reach only by chance, each against the word-at-a-time
// reference: ranges that wrap at the map's end, a LoadRange over words
// with sub-word write marks, and a LoadRange while the write overflow
// buffer holds a word.
func TestBulkScriptedOpenaddrShapes(t *testing.T) {
	const slots = 1 << 6 // LogWords: 6
	const span = slots * mem.Word
	at := func(slot int) mem.Addr { return mem.Addr((slot + slots) * mem.Word) }
	words := func(n int, seed byte) []byte {
		b := make([]byte, n*mem.Word)
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	scripts := map[string][]bulkOp{
		"wrap": {
			{kind: opLoad, p: at(62), size: mem.Word},             // a hit inside the run
			{kind: opLoadRange, p: at(58), nWords: 12},            // slots 58..63 then 0..5
			{kind: opArenaWrite, p: at(1), v: 0xA11CE},            // after the snapshot
			{kind: opLoadRange, p: at(60), nWords: 8},             // all hits, wrapping
			{kind: opStoreRange, p: at(61), src: words(6, 0x10)},  // slots 61..63 then 0..2
			{kind: opStoreFill, p: at(63), nWords: 3, v: 0xF111},  // slot 63 then 0..1
			{kind: opLoadRange, p: at(59) + span, nWords: 7},      // foreign slots: overflow
			{kind: opLoadRange, p: at(56), nWords: slots + 8},     // longer than the map
			{kind: opStoreRange, p: at(60), src: words(slots, 7)}, // laps the map once
		},
		"sub-word-marks": {
			{kind: opStore, p: at(3) + 2, size: 2, v: 0xBEEF},    // partial marks
			{kind: opStore, p: at(5), size: 4, v: 0xC0FFEE},      // low half marked
			{kind: opStore, p: at(6), size: mem.Word, v: 0x6666}, // fully marked
			{kind: opArenaWrite, p: at(3), v: 0x0102030405060708},
			{kind: opLoadRange, p: at(1), nWords: 8},
			{kind: opStore, p: at(4) + 7, size: 1, v: 0x99}, // now in both sets
			{kind: opLoadRange, p: at(2), nWords: 6},
		},
		"write-overflow": {
			{kind: opLoadRange, p: at(12), nWords: 4},
			{kind: opStore, p: at(10), size: mem.Word, v: 0x0A},         // own write
			{kind: opStore, p: at(10) + span, size: mem.Word, v: 0x0F},  // parked: slot 10 is taken
			{kind: opStore, p: at(30), size: mem.Word, v: 0x30},         // own write
			{kind: opLoadRange, p: at(8) + span, nWords: 4},             // the parked word amid empty slots
			{kind: opLoadRange, p: at(6), nWords: 28},                   // hits, foreign slots, own writes
			{kind: opStoreRange, p: at(10) + span, src: words(2, 0x20)}, // the parked word again
			{kind: opLoadRange, p: at(10) + span, nWords: 2},
			{kind: opStoreFill, p: at(40) + span, nWords: 9, v: 0x4444}, // into empty slots
			{kind: opLoadRange, p: at(38) + span, nWords: 12},           // still one word at a time
		},
	}
	for name, ops := range scripts {
		for _, ovCap := range []int{8, 2} {
			cfg := Config{Backend: "openaddr", LogWords: 6, OverflowCap: ovCap}
			t.Run(fmt.Sprintf("%s/overflow=%d", name, ovCap), func(t *testing.T) {
				x := newBulkPair(t, cfg, int64(len(name)))
				for cycle := 0; cycle < 2; cycle++ {
					for k, op := range ops {
						if x.dead {
							break
						}
						x.do(fmt.Sprintf("cycle %d op %d", cycle, k), op)
					}
					x.endCycle(fmt.Sprintf("cycle %d", cycle), true)
				}
			})
		}
	}
}

// TestBulkMisalignedGeometry checks that every backend rejects non-word
// range geometries without touching any state.
func TestBulkMisalignedGeometry(t *testing.T) {
	for name, cfg := range bulkStressConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			a, err := mem.NewArena(1 << 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBackend(a, cfg.WithDefaults())
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2*mem.Word)
			if st := b.LoadRange(12, buf); st != Misaligned {
				t.Fatalf("unaligned LoadRange: %v", st)
			}
			if st := b.StoreRange(16, buf[:mem.Word+1]); st != Misaligned {
				t.Fatalf("ragged StoreRange: %v", st)
			}
			if b.ReadSetSize() != 0 || b.WriteSetSize() != 0 {
				t.Fatalf("misaligned geometry touched the sets: %d/%d",
					b.ReadSetSize(), b.WriteSetSize())
			}
		})
	}
}

// TestBulkValidationDetectsConflict makes sure a run-batched validation
// still sees a single clobbered word in the middle of a bulk-loaded run.
func TestBulkValidationDetectsConflict(t *testing.T) {
	for name, cfg := range bulkStressConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			a, err := mem.NewArena(1 << 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBackend(a, cfg.WithDefaults())
			if err != nil {
				t.Fatal(err)
			}
			base := mem.Addr(64)
			dst := make([]byte, 24*mem.Word)
			if st := b.LoadRange(base, dst); st != OK {
				t.Fatalf("LoadRange: %v", st)
			}
			if !b.Validate() {
				t.Fatal("clean validation failed")
			}
			a.WriteWord(base+13*mem.Word, 0xDEAD)
			if b.Validate() {
				t.Fatal("validation missed a clobbered word inside a run")
			}
		})
	}
}
