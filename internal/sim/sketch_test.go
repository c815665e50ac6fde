package sim

import (
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
		"mean": s.Mean(), "min": s.Min(), "max": s.Max(),
		"p0": s.Quantile(0), "p50": s.Quantile(0.5), "p100": s.Quantile(1),
		"sum": s.Sum(),
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
	s, err := NewSketch(alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var exact []float64
	for i := 0; i < 20000; i++ {
		// Latency-like values across five orders of magnitude.
		v := math.Exp(rng.NormFloat64()*2 - 3)
		exact = append(exact, v)
		s.Add(v)
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
			b.Add(v)
		}
	}
	if a.Count() != b.Count() {
		t.Fatalf("weighted add diverged: count %d/%d", a.Count(), b.Count())
	}
	// Sums differ only by float accumulation order.
	if math.Abs(a.Sum()-b.Sum()) > 1e-9*math.Abs(b.Sum()) {
		t.Fatalf("weighted add sum diverged: %v vs %v", a.Sum(), b.Sum())
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
	s.Add(math.NaN())
	if s.Count() != 10 {
		t.Errorf("NaN was recorded: count = %d", s.Count())
	}
}

func TestNewSketchRejectsBadAccuracy(t *testing.T) {
	for _, alpha := range []float64{0, 1, -0.5, 2, math.NaN(), math.Inf(1)} {
		if _, err := NewSketch(alpha); err == nil {
			t.Errorf("NewSketch(%v) accepted", alpha)
		}
	}
}
