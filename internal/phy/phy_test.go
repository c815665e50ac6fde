package phy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBandStrings(t *testing.T) {
	for b, want := range map[Band]string{
		BandUHF: "UHF", BandS: "S-band", BandKu: "Ku-band",
		BandKa: "Ka-band", BandOptical: "optical", Band(99): "Band(99)",
	} {
		if got := b.String(); got != want {
			t.Errorf("Band(%d).String() = %q, want %q", int(b), got, want)
		}
	}
}

func TestBandFrequenciesOrdered(t *testing.T) {
	// Frequencies must increase UHF < S < Ku < Ka < optical.
	bands := []Band{BandUHF, BandS, BandKu, BandKa, BandOptical}
	prev := 0.0
	for _, b := range bands {
		f := b.CenterFrequencyHz()
		if f <= prev {
			t.Fatalf("%v frequency %v not increasing", b, f)
		}
		prev = f
	}
	if Band(99).CenterFrequencyHz() != 0 {
		t.Error("unknown band should report zero frequency")
	}
}

func TestFreeSpacePathLoss(t *testing.T) {
	// Textbook value: 1000 km at 2.25 GHz → ~159.5 dB.
	got := FreeSpacePathLossDB(1000, 2.25e9)
	if !almostEqual(got, 159.5, 0.2) {
		t.Errorf("FSPL(1000 km, S-band) = %v, want ~159.5", got)
	}
	// Doubling distance adds 6.02 dB.
	d1 := FreeSpacePathLossDB(500, 2.25e9)
	d2 := FreeSpacePathLossDB(1000, 2.25e9)
	if !almostEqual(d2-d1, 6.0206, 1e-3) {
		t.Errorf("doubling distance added %v dB, want 6.02", d2-d1)
	}
	// Degenerate inputs.
	if FreeSpacePathLossDB(0, 1e9) != 0 || FreeSpacePathLossDB(100, 0) != 0 {
		t.Error("degenerate FSPL should be 0")
	}
}

func TestDBConversions(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200)
		return almostEqual(LinearToDB(DBToLinear(db)), db, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if !math.IsInf(LinearToDB(0), -1) {
		t.Error("LinearToDB(0) should be -Inf")
	}
}

func TestShannonCapacity(t *testing.T) {
	// SNR = 1 → C = B.
	if got := ShannonCapacityBps(1e6, 1); !almostEqual(got, 1e6, 1) {
		t.Errorf("C(B=1M, SNR=1) = %v, want 1e6", got)
	}
	// SNR = 3 → C = 2B.
	if got := ShannonCapacityBps(1e6, 3); !almostEqual(got, 2e6, 1) {
		t.Errorf("C(B=1M, SNR=3) = %v, want 2e6", got)
	}
	if ShannonCapacityBps(0, 10) != 0 || ShannonCapacityBps(1e6, 0) != 0 {
		t.Error("degenerate capacity should be 0")
	}
}

func TestPropagationDelay(t *testing.T) {
	// 299792.458 km → exactly 1 s.
	if got := PropagationDelay(SpeedOfLightKmS); got != time.Second {
		t.Errorf("delay = %v, want 1s", got)
	}
	// 1000 km ≈ 3.336 ms.
	got := PropagationDelay(1000)
	if got < 3300*time.Microsecond || got > 3400*time.Microsecond {
		t.Errorf("delay(1000 km) = %v, want ~3.34 ms", got)
	}
	if PropagationDelay(0) != 0 || PropagationDelay(-5) != 0 {
		t.Error("non-positive distance should give zero delay")
	}
}

func TestRFBudgetMonotonic(t *testing.T) {
	// SNR and capacity fall with distance.
	term := StandardSBand()
	prevSNR := math.Inf(1)
	for _, d := range []float64{100, 500, 1000, 2000, 4000} {
		b := term.Budget(d, 0)
		if b.SNRdB >= prevSNR {
			t.Fatalf("SNR did not fall at %v km", d)
		}
		prevSNR = b.SNRdB
		if b.Delay != PropagationDelay(d) {
			t.Errorf("budget delay mismatch at %v km", d)
		}
	}
}

func TestRFLinkCloses(t *testing.T) {
	// The standard terminals must close at representative ISL ranges:
	// adjacent Iridium satellites in-plane are ~4000 km apart at most;
	// the UHF baseline is narrowband and should still close at 2000 km.
	if b := StandardUHF().Budget(2000, 0); !b.Closed {
		t.Errorf("UHF should close at 2000 km: %v", b)
	}
	if b := StandardSBand().Budget(4000, 0); !b.Closed {
		t.Errorf("S-band should close at 4000 km: %v", b)
	}
	// And must fail at absurd range.
	if b := StandardUHF().Budget(500000, 0); b.Closed {
		t.Errorf("UHF should not close at 500000 km: %v", b)
	}
	// Closed=false zeroes capacity.
	if b := StandardUHF().Budget(500000, 0); b.CapacityBps != 0 {
		t.Error("open link should have zero capacity")
	}
}

func TestMaxRange(t *testing.T) {
	term := StandardUHF()
	maxR := term.MaxRangeKm(0, 1e6)
	if maxR <= 2000 || maxR >= 1e6 {
		t.Fatalf("UHF max range = %v, want within (2000, 1e6)", maxR)
	}
	// Budget closes just inside and fails just outside.
	if !term.Budget(maxR-1, 0).Closed {
		t.Error("link should close just inside max range")
	}
	if term.Budget(maxR+10, 0).Closed {
		t.Error("link should fail just past max range")
	}
	// A terminal that cannot close at all.
	weak := StandardUHF()
	weak.TxPowerW = 1e-15
	if weak.MaxRangeKm(0, 1e6) != 0 {
		t.Error("hopeless link should report zero range")
	}
	// A link that closes at the limit returns the limit.
	if got := StandardSBand().MaxRangeKm(0, 100); got != 100 {
		t.Errorf("range-limited link = %v, want 100", got)
	}
}
