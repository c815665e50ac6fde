// Package fluid is the aggregate-traffic layer that lets OpenSpace serve
// the paper's "millions of users" without millions of per-flow events.
// Instead of scheduling one engine event per transfer (the per-flow path
// in core.RunScenario, which drowns past ~10⁴ users), the user population
// is bucketed analytically into (city-pair × traffic-class) aggregates —
// a ClassMatrix — whose arrival rates and byte volumes follow from the
// population weights and class parameters in closed form. A fluid
// rate-evolution model (Evolver) then drives the aggregates through the
// existing traffic max-min allocator once per topology/fault epoch, and
// de-aggregates the allocation back into ScenarioResult-compatible
// counters: delivered transfers and bytes, per-class latency
// distributions (bounded-memory sim.Sketch, not per-sample histograms),
// and retry/abandonment bookkeeping when fault masks sever routes.
//
// Everything is deterministic and worker-count invariant: each aggregate
// stream owns one exec.Seed domain, so realized arrival counts depend
// only on (seed, aggregate coordinates, epoch) — never on scheduling.
// Simulation cost scales with aggregates × epochs, not users; 10⁷
// effective users cost the same wall time as 10⁴ (experiment E18 and the
// users-scale CI gate pin this).
package fluid

import (
	"fmt"
	"math"
)

// Class is one traffic class: a share of the user population with a
// common arrival rate and bounded-Pareto transfer-size distribution (the
// same family sim.FlowSizeBytes samples per-flow).
type Class struct {
	Name string
	// UserShare weights how much of the population belongs to this class;
	// shares are normalized over the class set, so they need not sum to 1.
	UserShare float64
	// RatePerUserS is each user's transfer arrival rate (transfers/s).
	RatePerUserS float64
	// MinBytes/MaxBytes bound the Pareto-distributed transfer sizes and
	// ParetoAlpha is the tail shape, exactly as in sim.FlowSizeBytes.
	MinBytes, MaxBytes int64
	ParetoAlpha        float64
}

// Validate reports whether the class is usable.
func (c Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("fluid: class without name")
	}
	// !(x > 0) also rejects NaN; a NaN or +Inf share or rate would reach
	// the Poisson draw as a non-finite mean.
	if !(c.UserShare > 0) || math.IsInf(c.UserShare, 1) {
		return fmt.Errorf("fluid: class %q share %.3g must be positive and finite", c.Name, c.UserShare)
	}
	if !(c.RatePerUserS > 0) || math.IsInf(c.RatePerUserS, 1) {
		return fmt.Errorf("fluid: class %q rate %.3g must be positive and finite", c.Name, c.RatePerUserS)
	}
	if c.MinBytes <= 0 || c.MaxBytes < c.MinBytes {
		return fmt.Errorf("fluid: class %q size bounds [%d,%d] invalid", c.Name, c.MinBytes, c.MaxBytes)
	}
	if !(c.ParetoAlpha > 0) || math.IsInf(c.ParetoAlpha, 1) {
		return fmt.Errorf("fluid: class %q Pareto shape %.3g must be positive and finite", c.Name, c.ParetoAlpha)
	}
	return nil
}

// MeanBytes is the analytic mean of the bounded Pareto sim.FlowSizeBytes
// draws from: X = min(L·U^(−1/α), H) with U uniform. With p = (L/H)^α
// the truncated mass, E[X] = p·H + L·(1 − p^(1−1/α))/(1 − 1/α), with the
// α→1 limit p·H + L·ln(1/p). This is what replaces per-transfer size
// sampling in aggregate mode.
func (c Class) MeanBytes() float64 {
	l, h := float64(c.MinBytes), float64(c.MaxBytes)
	if h <= l {
		return l
	}
	p := math.Pow(l/h, c.ParetoAlpha)
	exp := 1 - 1/c.ParetoAlpha
	if math.Abs(exp) < 1e-9 {
		return p*h + l*math.Log(1/p)
	}
	return p*h + l*(1-math.Pow(p, exp))/exp
}

// QuantileBytes is the analytic q-quantile of the bounded Pareto size
// distribution: min(L·(1−q)^(−1/α), H). De-aggregation samples this at
// fixed ranks to rebuild a latency distribution from an aggregate.
func (c Class) QuantileBytes(q float64) float64 {
	l, h := float64(c.MinBytes), float64(c.MaxBytes)
	if q <= 0 {
		return l
	}
	if q >= 1 {
		return h
	}
	v := l * math.Pow(1-q, -1/c.ParetoAlpha)
	if v > h {
		return h
	}
	return v
}

// DefaultClasses is the standard OpenSpace traffic mix: interactive web
// browsing, streaming video (few arrivals, heavy tails), and massive-IoT
// telemetry (many devices, tiny episodic uplinks — the disrupted-comms
// workload the OMNeT++ literature runs against LEO constellations).
func DefaultClasses() []Class {
	return []Class{
		{Name: "web", UserShare: 0.55, RatePerUserS: 0.02, MinBytes: 50_000, MaxBytes: 50_000_000, ParetoAlpha: 1.3},
		{Name: "video", UserShare: 0.30, RatePerUserS: 0.004, MinBytes: 5_000_000, MaxBytes: 2_000_000_000, ParetoAlpha: 1.1},
		{Name: "iot", UserShare: 0.15, RatePerUserS: 0.0005, MinBytes: 200, MaxBytes: 100_000, ParetoAlpha: 1.6},
	}
}
