package exec

import "math/rand"

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator: a
// bijective avalanche mix whose output bits all depend on all input bits.
// It is the standard seed-derivation primitive (Vigna recommends it for
// seeding xoshiro/xoroshiro state) and is what makes hierarchical seeds
// collision-resistant here.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Seed derives a child seed from a base seed and the task's logical
// coordinates (e.g. sweep point, trial index). The derivation is a
// SplitMix64 hash chain, so distinct coordinate tuples map to distinct
// seeds (collisions need ~2^32 tuples by birthday bound; sweeps here are
// thousands) and the result depends only on (base, coords), never on
// worker scheduling.
func Seed(base int64, coords ...int64) int64 {
	x := splitmix64(uint64(base))
	for _, c := range coords {
		x = splitmix64(x ^ splitmix64(uint64(c)))
	}
	return int64(x)
}

// RNG returns a rand.Rand owned by the task at the given coordinates.
// Tasks must not share RNGs: one RNG per Map index is what keeps parallel
// sweeps bitwise identical to serial ones.
func RNG(base int64, coords ...int64) *rand.Rand {
	return rand.New(rand.NewSource(Seed(base, coords...)))
}

// A Domain names one independent family of RNG streams. The Tag is the
// stream family's repo-unique identity — by convention
// "<package>/<stream>" — and is what the seeddomain analyzer checks for
// duplicates, closing the loophole where a copy-pasted numeric domain
// silently correlates two supposedly independent streams. The ID is the
// coordinate actually folded into the SplitMix64 chain: a package
// adopting a Tag for a stream that already had a numeric domain keeps its
// old ID, so every committed result stays byte-identical.
//
// Declare domains as package-level variables with literal fields:
//
//	var domainArrivals = exec.Domain{Tag: "fluid/arrivals", ID: 3}
//
// Both fields must be literals — the analyzer cannot vouch for a tag it
// cannot read — and both must be unique across the repository.
type Domain struct {
	Tag string
	ID  int64
}

// DomainSeed derives a child seed namespaced by the domain. It is
// definitionally Seed(base, d.ID, coords...): the tag documents and
// de-duplicates the stream family, the ID feeds the hash chain.
func DomainSeed(base int64, d Domain, coords ...int64) int64 {
	x := splitmix64(uint64(base))
	x = splitmix64(x ^ splitmix64(uint64(d.ID)))
	for _, c := range coords {
		x = splitmix64(x ^ splitmix64(uint64(c)))
	}
	return int64(x)
}

// DomainRNG returns a rand.Rand drawing from the domain-tagged stream at
// the given coordinates — the blessed way for an internal package to
// construct a generator of its own.
func DomainRNG(base int64, d Domain, coords ...int64) *rand.Rand {
	return rand.New(rand.NewSource(DomainSeed(base, d, coords...)))
}

// Reseed re-derives rng's stream in place: after Reseed(rng, base, c...)
// the generator produces exactly the sequence RNG(base, c...) would, but
// without constructing a new source. Hot loops that need a fresh stream
// per (element, epoch) hang one scratch generator off their receiver and
// Reseed it instead of allocating two objects per draw site. On a
// ScratchRNG the reseed is O(1): register slots are derived as draws
// reach them.
func Reseed(rng *rand.Rand, base int64, coords ...int64) {
	rng.Seed(Seed(base, coords...)) //nolint:staticcheck // in-place reseed is the point: same stream as rand.New(rand.NewSource(seed)), zero allocations
}

// ScratchRNG returns a generator whose initial stream is meaningless: it
// exists to be Reseed-ed before every use. It draws from a lazySource,
// which yields math/rand's exact stream for every seed but reseeds in
// O(1). Constructing it here keeps the raw rand.New call inside the one
// package the seeddomain analyzer blesses.
func ScratchRNG() *rand.Rand {
	src := &lazySource{}
	src.Seed(0)
	return rand.New(src)
}
