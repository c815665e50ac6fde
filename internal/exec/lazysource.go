package exec

// math/rand v1's generator (rngSource in math/rand/rng.go) is an additive
// lagged Fibonacci register of rngLen slots, tapped rngTap apart. Seeding
// it fills every slot from a Lehmer stream x ← 48271·x mod (2³¹−1): 1 841
// modular steps, of which a short draw sequence reads only a few dozen.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	lehmerA = 48271
	// seedSkip Lehmer steps are discarded before slot 0; slot i then
	// consumes steps seedSkip+3i+1 … seedSkip+3i+3.
	seedSkip = 20
)

// lehmerPow[n] is 48271ⁿ mod (2³¹−1), so the seed's n-th Lehmer state is
// seed·lehmerPow[n] mod (2³¹−1): a jump straight to any step.
var lehmerPow = func() (p [seedSkip + 3*rngLen + 1]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * lehmerA % int32max
	}
	return p
}()

// lazySource is a rand.Source64 producing exactly math/rand v1's stream
// for every seed, with an O(1) Seed. Seed only records the normalised seed
// and opens a new generation; each register slot is derived by jump-ahead
// the first time the recurrence reads it, and stamp[i] == gen marks slots
// the current seed has already derived (or overwritten). Reseeding per
// (aggregate, epoch) in the fluid evolver thus costs a few dozen slot
// derivations instead of the full 607-slot fill.
type lazySource struct {
	tap, feed int
	seed      uint64 // normalised to [1, 2³¹−2], as rngSource.Seed does
	gen       uint32
	vec       [rngLen]int64
	stamp     [rngLen]uint32
}

// Seed resets the source to math/rand's stream for seed.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.gen++
	if s.gen == 0 {
		// A wrapped counter would let stale stamps pass as current.
		clear(s.stamp[:])
		s.gen = 1
	}
}

// slot returns register slot i, deriving it first if the current seed has
// not touched it yet. The derivation is rngSource.Seed's loop body for
// index i, with the three Lehmer states reached by jump-ahead.
func (s *lazySource) slot(i int) int64 {
	if s.stamp[i] != s.gen {
		n := seedSkip + 3*i
		x1 := int64(s.seed * lehmerPow[n+1] % int32max)
		x2 := int64(s.seed * lehmerPow[n+2] % int32max)
		x3 := int64(s.seed * lehmerPow[n+3] % int32max)
		s.vec[i] = x1<<40 ^ x2<<20 ^ x3 ^ rngCooked[i]
		s.stamp[i] = s.gen
	}
	return s.vec[i]
}

// Uint64 advances the register one step, as rngSource.Uint64 does.
//
//lint:hotpath
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.slot(s.feed) + s.slot(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer, as rngSource.Int63 does.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
