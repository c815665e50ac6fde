package phy

import (
	"math"
	"testing"
)

func TestConLCT80MatchesPaperSpecs(t *testing.T) {
	// The paper's published reference numbers (§2.1).
	l := ConLCT80()
	if l.CostUSD != 500_000 {
		t.Errorf("cost = %v, want 500000", l.CostUSD)
	}
	if l.MassKg != 15 {
		t.Errorf("mass = %v, want 15", l.MassKg)
	}
	if l.VolumeM3 != 0.0234 {
		t.Errorf("volume = %v, want 0.0234", l.VolumeM3)
	}
}

func TestLaserBudgetClosesAtISLRange(t *testing.T) {
	l := ConLCT80()
	// LEO crosslink ranges: up to ~5000 km.
	for _, d := range []float64{500, 1000, 3000, 5000} {
		b := l.Budget(d)
		if !b.Closed {
			t.Errorf("laser should close at %v km: %v", d, b)
		}
		if b.CapacityBps != l.DataRateBps {
			t.Errorf("closed laser capacity = %v, want rated %v", b.CapacityBps, l.DataRateBps)
		}
	}
}

func TestLaserMaxRange(t *testing.T) {
	l := ConLCT80()
	maxR := l.MaxRangeKm(1e7)
	if maxR < 5000 {
		t.Fatalf("laser max range = %v, want ≥ 5000 km", maxR)
	}
	if !l.Budget(maxR - 1).Closed {
		t.Error("should close just inside max range")
	}
	if l.Budget(maxR + 100).Closed {
		t.Error("should fail just outside max range")
	}
	weak := ConLCT80()
	weak.TxPowerW = 1e-30
	if weak.MaxRangeKm(1e7) != 0 {
		t.Error("hopeless laser should report zero range")
	}
}

func TestLaserBeatsRFOnThroughputAndEnergy(t *testing.T) {
	// The paper's claim: "Laser technology offers a higher throughput than
	// RF, with lower energy cost."
	l := ConLCT80()
	rf := StandardSBand()
	const d = 2000.0
	lb, rb := l.Budget(d), rf.Budget(d, 0)
	if !lb.Closed || !rb.Closed {
		t.Fatalf("both links must close at %v km", d)
	}
	if lb.CapacityBps <= 10*rb.CapacityBps {
		t.Errorf("laser capacity %v should exceed RF %v by >10x", lb.CapacityBps, rb.CapacityBps)
	}
	if l.EnergyPerBitJ(d) >= rf.EnergyPerBitJ(d) {
		t.Errorf("laser energy/bit %v should be below RF %v",
			l.EnergyPerBitJ(d), rf.EnergyPerBitJ(d))
	}
}

func TestLaserButCostlierAndHeavierThanRF(t *testing.T) {
	// The flip side (§2.1): laser terminals are infeasible for small
	// spacecraft on cost and mass.
	l := ConLCT80()
	rf := StandardUHF()
	if l.CostUSD <= rf.CostUSD || l.MassKg <= rf.MassKg {
		t.Error("laser must cost and weigh more than the RF baseline")
	}
}

func TestLaserEnergyPerBitInfWhenOpen(t *testing.T) {
	l := ConLCT80()
	if !math.IsInf(l.EnergyPerBitJ(1e9), 1) {
		t.Error("energy per bit over an open link should be +Inf")
	}
	rf := StandardUHF()
	if !math.IsInf(rf.EnergyPerBitJ(1e9), 1) {
		t.Error("RF energy per bit over an open link should be +Inf")
	}
}
