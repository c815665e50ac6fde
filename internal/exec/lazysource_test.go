package exec

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// drawBoth makes the draw op selects on both generators and returns the
// two results as bits, so NaN-free float draws compare exactly. The mix
// covers every rand.Rand path the repo uses: Int63 (Float64, Intn and the
// ziggurat samplers through it) and the Source64 fast path (Uint64).
func drawBoth(op byte, got, want *rand.Rand) (uint64, uint64) {
	switch op % 7 {
	case 0:
		return math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
	case 1:
		return math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
	case 2:
		return math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
	case 3:
		return uint64(got.Int63()), uint64(want.Int63())
	case 4:
		return got.Uint64(), want.Uint64()
	case 5:
		n := 1 + int(op) // Int31n's rejection loop
		return uint64(got.Intn(n)), uint64(want.Intn(n))
	default:
		n := 1<<40 + int(op) // Int63n's rejection loop
		return uint64(got.Intn(n)), uint64(want.Intn(n))
	}
}

// checkStream reseeds got to seed and draws n mixed values from it and
// from a fresh math/rand source at seed, failing on the first difference.
func checkStream(t *testing.T, got *rand.Rand, seed int64, n int, op func(d int) byte) {
	t.Helper()
	got.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	for d := 0; d < n; d++ {
		o := op(d)
		if g, w := drawBoth(o, got, want); g != w {
			t.Fatalf("seed %d: draw %d (op %d) = %#x, math/rand gives %#x", seed, d, o%7, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand is the differential gate behind
// ScratchRNG: over 20 000 seeds — the normalisation edge cases, small
// integers and exec.Seed derivations — one reused lazy source must
// reproduce math/rand's stream draw for draw. Every 16th seed draws 1 300
// values, past the register's first (607) and second (1 214) wrap; the
// rest draw a Poisson-sized handful, as the fluid evolver does. Reusing
// one source across seeds exercises the generation stamps on every Seed.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, int32max, -int32max, int32max - 1, -(int32max - 1),
		int32max + 1, 2 * int32max, 89482311, -89482311, 1 << 31, 1 << 40,
		-(1 << 40), math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for i := int64(0); len(seeds) < 20_000; i++ {
		seeds = append(seeds, Seed(5, i), i-5_000)
	}
	mix := RNG(9)
	op := func(int) byte { return byte(mix.Intn(256)) }
	got := ScratchRNG()
	for k, seed := range seeds {
		n := 1 + k%48
		if k%16 == 0 {
			n = 1300
		}
		checkStream(t, got, seed, n, op)
	}
}

// TestLazySourceReseedMidStream reseeds a source at every draw count where
// the tap/feed cursors or the register wrap, so a new seed meets slots the
// old one derived, overwrote or never reached.
func TestLazySourceReseedMidStream(t *testing.T) {
	got := ScratchRNG()
	op := func(d int) byte { return byte(d) }
	for _, drawn := range []int{0, 1, rngTap - 1, rngTap, rngLen - rngTap, rngLen - 1, rngLen, rngLen + 1, 2 * rngLen, 2*rngLen + 1} {
		checkStream(t, got, 17, drawn, op)
		checkStream(t, got, -3, 2*rngLen+5, op)
	}
}

// TestLazySourceGenerationWrap: when the generation counter wraps, stamps
// left by an old generation of the same number must not pass as derived.
func TestLazySourceGenerationWrap(t *testing.T) {
	src := &lazySource{}
	src.Seed(3) // generation 1
	for i := 0; i < 2*rngLen; i++ {
		src.Uint64() // stamp every slot with generation 1
	}
	src.gen = math.MaxUint32 // checkStream's Seed wraps back to generation 1
	checkStream(t, rand.New(src), 11, 2*rngLen+5, func(d int) byte { return byte(d) })
}

// FuzzLazySource compares the lazy source with math/rand over a seed, a
// reseed of the already-drawn source, a draw count up to past the second
// register wrap, and a cyclic draw mix.
func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(10), []byte{0})
	f.Add(int64(int32max), int64(-1), uint16(1300), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(int64(1<<40), int64(89482311), uint16(700), []byte{3, 4})
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint16(1215), []byte{1, 12})
	f.Fuzz(func(t *testing.T, seed, reseed int64, draws uint16, mix []byte) {
		if len(mix) == 0 {
			mix = []byte{0}
		}
		n := int(draws % 2048)
		op := func(d int) byte { return mix[d%len(mix)] }
		got := ScratchRNG()
		checkStream(t, got, seed, n, op)
		checkStream(t, got, reseed, n, op)
	})
}

// allocGate skips unless the zero-allocation gates are explicitly enabled
// (OPENSPACE_ALLOC_GATE=1, as CI's alloc-gate step does).
func allocGate(t *testing.T) {
	t.Helper()
	if os.Getenv("OPENSPACE_ALLOC_GATE") == "" {
		t.Skip("set OPENSPACE_ALLOC_GATE=1 to run the zero-allocation gates")
	}
}

// TestAllocGateReseed pins the //lint:hotpath contract on lazySource's
// Uint64: reseeding a scratch generator and drawing from it, as the fluid
// evolver does once per (aggregate, epoch), allocates nothing.
func TestAllocGateReseed(t *testing.T) {
	allocGate(t)
	rng := ScratchRNG()
	epoch := int64(0)
	step := func() {
		Reseed(rng, 7, 3, epoch)
		epoch++
		for i := 0; i < 40; i++ {
			rng.Float64()
		}
		rng.NormFloat64()
		rng.Uint64()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("Reseed plus draws allocates %.2f per run, want 0", avg)
	}
}
