package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSketchZeroCountContract(t *testing.T) {
	s := DefaultSketch()
	if s.Count() != 0 {
		t.Fatalf("empty sketch count = %d", s.Count())
	}
	for name, got := range map[string]float64{
		"mean": s.Mean(), "max": s.Max(),
		"p0": s.Quantile(0), "p50": s.Quantile(0.5), "p100": s.Quantile(1),
	} {
		if got != 0 {
			t.Errorf("empty sketch %s = %v, want exactly 0", name, got)
		}
		if math.IsNaN(got) {
			t.Errorf("empty sketch %s is NaN", name)
		}
	}
}

func TestHistogramZeroCountContract(t *testing.T) {
	var h Histogram
	if h.Count() != 0 {
		t.Fatalf("empty histogram count = %d", h.Count())
	}
	for name, got := range map[string]float64{
		"mean": h.Mean(), "min": h.Min(), "max": h.Max(),
		"p0": h.Quantile(0), "p50": h.Quantile(0.5), "p100": h.Quantile(1),
		"stddev": h.Stddev(),
	} {
		if got != 0 {
			t.Errorf("empty histogram %s = %v, want exactly 0", name, got)
		}
		if math.IsNaN(got) {
			t.Errorf("empty histogram %s is NaN", name)
		}
	}
}

func TestSketchRelativeAccuracy(t *testing.T) {
	const alpha = 0.01
	s := newSketch(alpha)
	rng := rand.New(rand.NewSource(7))
	var exact []float64
	for i := 0; i < 20000; i++ {
		// Latency-like values across five orders of magnitude.
		v := math.Exp(rng.NormFloat64()*2 - 3)
		exact = append(exact, v)
		s.AddN(v, 1)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99} {
		idx := int(math.Ceil(q*float64(len(exact)))) - 1
		want := exact[idx]
		got := s.Quantile(q)
		if relErr := math.Abs(got-want) / want; relErr > 2*alpha {
			t.Errorf("q=%.2f: sketch %.6g vs exact %.6g (rel err %.4f > %.4f)",
				q, got, want, relErr, 2*alpha)
		}
	}
	if s.Buckets() > 2500 {
		t.Errorf("sketch used %d buckets for a 5-decade range; memory bound broken", s.Buckets())
	}
	if got, want := s.Count(), uint64(len(exact)); got != want {
		t.Errorf("count %d, want %d", got, want)
	}
}

func TestSketchWeightedAddMatchesRepeatedAdd(t *testing.T) {
	a := DefaultSketch()
	b := DefaultSketch()
	vals := []float64{0.004, 0.035, 0.035, 1.2, 88}
	weights := []uint64{1000, 1, 999, 40000, 3}
	for i, v := range vals {
		a.AddN(v, weights[i])
		for n := uint64(0); n < weights[i]; n++ {
			b.AddN(v, 1)
		}
	}
	if a.Count() != b.Count() {
		t.Fatalf("weighted add diverged: count %d/%d", a.Count(), b.Count())
	}
	// Sums differ only by float accumulation order.
	if math.Abs(a.sum-b.sum) > 1e-9*math.Abs(b.sum) {
		t.Fatalf("weighted add sum diverged: %v vs %v", a.sum, b.sum)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("q=%.1f: AddN %.6g vs repeated Add %.6g", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestSketchZeroAndNegativeValues(t *testing.T) {
	s := DefaultSketch()
	s.AddN(0, 5)
	s.AddN(-3, 2) // clamped into the zero bucket
	s.AddN(10, 3)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("p50 with majority-zero mass = %v, want 0", got)
	}
	if got := s.Quantile(0.95); math.Abs(got-10)/10 > 0.02 {
		t.Errorf("p95 = %v, want ≈10", got)
	}
	if s.Count() != 10 {
		t.Errorf("count = %d, want 10", s.Count())
	}
	s.AddN(math.NaN(), 1)
	if s.Count() != 10 {
		t.Errorf("NaN was recorded: count = %d", s.Count())
	}
}

// mapSketch is the map-backed Sketch the dense layout replaced, kept as
// the differential oracle: every query iterates buckets in sorted index
// order. Its only change is the +Inf rule (an overflow tally, not a
// bucket); everything else is the old code.
type mapSketch struct {
	gamma    float64
	logGamma float64
	counts   map[int]uint64
	zero     uint64
	inf      uint64
	total    uint64
	sum      float64
	min, max float64
}

func newMapSketch(alpha float64) *mapSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &mapSketch{gamma: gamma, logGamma: math.Log(gamma), counts: make(map[int]uint64)}
}

func (s *mapSketch) AddN(v float64, n uint64) {
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
	if v <= 0 {
		s.zero += n
		return
	}
	if math.IsInf(v, 1) {
		s.inf += n
		return
	}
	s.counts[int(math.Ceil(math.Log(v)/s.logGamma))] += n
}

func (s *mapSketch) Quantile(q float64) float64 {
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
	idxs := make([]int, 0, len(s.counts))
	for i := range s.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	cum := s.zero
	for _, i := range idxs {
		cum += s.counts[i]
		if cum >= rank {
			return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
		}
	}
	return s.max
}

// TestSketchMatchesMapOracle holds the dense layout to the map-backed
// oracle: the same weighted samples, added in ascending, descending and
// shuffled order (so the slice grows at both ends), must give
// bit-identical quantiles and the same bucket count, count, sum, min and
// max.
func TestSketchMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	type sample struct {
		v float64
		n uint64
	}
	var samples []sample
	for i := 0; i < 3000; i++ {
		// Log-uniform over 1e-6 … 1e4.
		samples = append(samples, sample{math.Pow(10, -6+10*rng.Float64()), uint64(1 + rng.Intn(1000))})
	}
	for _, v := range []float64{0, -2, math.Inf(-1), math.NaN(), math.Inf(1), 1e-320, 1e-6, 1e4} {
		samples = append(samples, sample{v, uint64(1 + rng.Intn(50))})
	}
	orders := map[string]func([]sample){
		"ascending":  func(s []sample) { sort.SliceStable(s, func(i, j int) bool { return s[i].v < s[j].v }) },
		"descending": func(s []sample) { sort.SliceStable(s, func(i, j int) bool { return s[i].v > s[j].v }) },
		"shuffled":   func(s []sample) { rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] }) },
	}
	for _, name := range []string{"ascending", "descending", "shuffled"} {
		for _, withInf := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/inf=%v", name, withInf), func(t *testing.T) {
				ordered := append([]sample(nil), samples...)
				orders[name](ordered)
				got, want := DefaultSketch(), newMapSketch(0.01)
				for _, s := range ordered {
					if math.IsInf(s.v, 1) && !withInf {
						continue
					}
					got.AddN(s.v, s.n)
					want.AddN(s.v, s.n)
				}
				if got.Buckets() != len(want.counts) {
					t.Errorf("buckets %d, oracle %d", got.Buckets(), len(want.counts))
				}
				same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
				if got.Count() != want.total || !same(got.sum, want.sum) || !same(got.min, want.min) || !same(got.Max(), want.max) {
					t.Errorf("count/sum/min/max %d %v %v %v, oracle %d %v %v %v",
						got.Count(), got.sum, got.min, got.Max(), want.total, want.sum, want.min, want.max)
				}
				for i := 0; i <= 1000; i++ {
					q := float64(i) / 1000
					if g, w := got.Quantile(q), want.Quantile(q); !same(g, w) {
						t.Fatalf("q=%.3f: dense %v, oracle %v", q, g, w)
					}
				}
			})
		}
	}
}

// TestSketchInfinity: +Inf samples sit above every finite bucket, so a
// rank among them answers +Inf and one below them answers its bucket.
// The bucket index of +Inf used to be int(+Inf) — the lowest int — so
// {1, +Inf, +Inf, +Inf} gave p50 = 0 and p95 ≈ 0.99.
func TestSketchInfinity(t *testing.T) {
	s := DefaultSketch()
	s.AddN(1, 1)
	s.AddN(math.Inf(1), 3)
	if got := s.Quantile(0.25); math.Abs(got-1) > 0.01 {
		t.Errorf("p25 = %v, want ≈1", got)
	}
	for _, q := range []float64{0.5, 0.95, 1} {
		if got := s.Quantile(q); !math.IsInf(got, 1) {
			t.Errorf("q=%v = %v, want +Inf", q, got)
		}
	}
	if s.Buckets() != 1 || s.Count() != 4 || !math.IsInf(s.Max(), 1) || s.min != 1 || !math.IsInf(s.sum, 1) {
		t.Errorf("buckets %d count %d min %v max %v sum %v, want 1 4 1 +Inf +Inf",
			s.Buckets(), s.Count(), s.min, s.Max(), s.sum)
	}
}

// TestSketchSpanBound: the widest possible sketch, one sample at the
// smallest denormal and one at MaxFloat64, spans the finite float range
// in about 71 k slots, at most doubled by growth headroom.
func TestSketchSpanBound(t *testing.T) {
	s := DefaultSketch()
	s.AddN(math.SmallestNonzeroFloat64, 1)
	s.AddN(math.MaxFloat64, 1)
	if len(s.counts) > 2*71_000 || s.Buckets() != 2 {
		t.Errorf("%d slots and %d buckets, want at most 2 × 71 000 and 2", len(s.counts), s.Buckets())
	}
}
