package sim

import (
	"fmt"
	"math"
)

// Sketch is a bounded-memory streaming quantile estimator: a log-bucketed
// histogram in the DDSketch family. Values land in geometric buckets
// (growth factor γ = (1+α)/(1−α) for relative accuracy α), so any
// quantile is answered to within relative error α from a bucket count
// that depends only on the value range — never on the sample count.
// Histogram retains every sample exactly; Sketch is what fluid-mode runs
// with 10⁷ effective transfers use instead, at a few hundred buckets.
//
// AddN records a whole weighted batch in O(1), which is how the fluid
// subsystem de-aggregates a class's analytic latency distribution without
// materializing per-transfer samples.
//
// Zero-count contract (same as Histogram): with no recorded weight,
// Count, Mean, Max and Quantile all return 0 — never NaN — so empty
// traffic classes serialize as zeros in CSVs.
//
// Layout: bucket counts are a dense slice indexed from the lowest bucket
// seen, grown at either end as new buckets appear, so queries walk the
// buckets in index order and an AddN into a covered bucket does not
// allocate. +Inf has no bucket; it is tallied on its own and a rank
// that lands there answers +Inf. The span is therefore bounded by the
// finite float range: at 1 % accuracy, indices run from −35 453 (the
// smallest denormals, 1e-320 among them) to 35 488 (MaxFloat64), about
// 71 k slots at worst, and growth headroom at most doubles that.
// Not safe for concurrent use.
type Sketch struct {
	gamma    float64
	logGamma float64
	counts   []uint64 // counts[i] is bucket lo+i's weight
	lo       int
	occupied int    // buckets with nonzero weight
	zero     uint64 // weight of values ≤ 0 (reported as exactly 0)
	inf      uint64 // weight of +Inf values (reported as +Inf)
	total    uint64
	sum      float64
	min, max float64
}

// newSketch builds a sketch with relative accuracy α in (0, 1); 0.01
// means quantiles within 1 % of the true value.
func newSketch(alpha float64) *Sketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{gamma: gamma, logGamma: math.Log(gamma)}
}

// DefaultSketch returns a 1 %-accuracy sketch.
func DefaultSketch() *Sketch { return newSketch(0.01) }

// AddN records n samples of value v in O(1). NaN values are ignored;
// values ≤ 0 are counted but reported as exactly 0 (latencies and byte
// counts are non-negative), and +Inf is counted but has no bucket.
func (s *Sketch) AddN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	if s.total == 0 || v < s.min {
		s.min = v
	}
	if s.total == 0 || v > s.max {
		s.max = v
	}
	s.total += n
	s.sum += v * float64(n)
	switch {
	case v <= 0:
		s.zero += n
		return
	case math.IsInf(v, 1):
		s.inf += n
		return
	}
	i := s.bucket(v)
	if len(s.counts) == 0 || i < s.lo || i >= s.lo+len(s.counts) {
		s.cover(i)
	}
	c := &s.counts[i-s.lo]
	if *c == 0 {
		s.occupied++
	}
	*c += n
}

// cover grows the bucket slice so that it holds index i, doubling its
// length (the headroom on the side that grew) so a run of new buckets
// costs amortized O(1) each.
func (s *Sketch) cover(i int) {
	switch {
	case len(s.counts) == 0:
		//lint:allow hotalloc once per sketch, at its first positive finite sample
		s.counts = make([]uint64, 1, 16)
		s.lo = i
	case i < s.lo:
		grow := max(s.lo-i, len(s.counts))
		//lint:allow hotalloc doubling resize, amortized O(1) per new bucket; bounded by the finite float range
		c := make([]uint64, grow+len(s.counts))
		copy(c[grow:], s.counts)
		s.counts, s.lo = c, s.lo-grow
	default:
		//lint:allow hotalloc append's amortized doubling; bounded by the finite float range
		s.counts = append(s.counts, make([]uint64, i-s.lo-len(s.counts)+1)...)
	}
}

// bucket maps a positive value to its geometric bucket index.
func (s *Sketch) bucket(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logGamma))
}

// value returns the representative value of a bucket: the geometric
// midpoint 2γⁱ/(γ+1), within relative error α of everything in the bucket.
func (s *Sketch) value(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Count returns the total recorded weight.
func (s *Sketch) Count() uint64 { return s.total }

// Buckets returns the number of occupied buckets.
func (s *Sketch) Buckets() int { return s.occupied }

// Mean returns the exact arithmetic mean, 0 with no samples.
func (s *Sketch) Mean() float64 {
	if s.total == 0 {
		return 0
	}
	return s.sum / float64(s.total)
}

// Max returns the largest recorded value (exact), 0 with no samples.
func (s *Sketch) Max() float64 {
	if s.total == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank over bucket
// representatives, matching Histogram.Quantile's rank convention; 0 with
// no samples.
func (s *Sketch) Quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.total)))
	if rank == 0 {
		rank = 1
	}
	if rank <= s.zero {
		return 0
	}
	cum := s.zero
	for j, c := range s.counts {
		cum += c
		if cum >= rank {
			return s.value(s.lo + j)
		}
	}
	// The rank is past every finite bucket: it is in the +Inf tally,
	// where max is +Inf, or float slack put it past the total.
	return s.max
}

// String implements fmt.Stringer.
func (s *Sketch) String() string {
	return fmt.Sprintf("sketch{n=%d mean=%.4g p50=%.4g p95=%.4g max=%.4g buckets=%d}",
		s.Count(), s.Mean(), s.Quantile(0.5), s.Quantile(0.95), s.Max(), s.Buckets())
}
