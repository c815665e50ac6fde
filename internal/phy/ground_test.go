package phy

import (
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

func TestAtmosphereLoss(t *testing.T) {
	a := ClearSky(BandKu)
	// Loss grows as elevation drops.
	prev := 0.0
	for _, el := range []float64{90, 60, 30, 10, 5} {
		l := a.LossDB(el)
		if l <= prev {
			t.Fatalf("loss did not grow at elevation %v", el)
		}
		prev = l
	}
	// Below 5° the model clamps.
	if a.LossDB(1) != a.LossDB(5) {
		t.Error("loss should clamp below 5° elevation")
	}
	// Zenith loss equals configured total.
	if got := a.LossDB(90); !almostEqual(got, a.ZenithLossDB+a.RainMarginDB, 1e-9) {
		t.Errorf("zenith loss = %v", got)
	}
}

func TestClearSkyOrdering(t *testing.T) {
	// Attenuation grows with frequency band.
	uhf := ClearSky(BandUHF).LossDB(90)
	s := ClearSky(BandS).LossDB(90)
	ku := ClearSky(BandKu).LossDB(90)
	ka := ClearSky(BandKa).LossDB(90)
	if !(uhf < s && s < ku && ku < ka) {
		t.Errorf("attenuation ordering broken: %v %v %v %v", uhf, s, ku, ka)
	}
	if ClearSky(BandOptical).LossDB(90) != 0 {
		t.Error("optical ground model is out of scope and should be zero")
	}
}

func TestGroundLinkBudget(t *testing.T) {
	g := DefaultGroundLink()
	// Iridium-style pass: zenith at 780 km.
	zenith := g.Budget(geo.SlantRangeKm(780, 90), 90)
	if !zenith.Closed {
		t.Fatalf("ground link should close at zenith: %v", zenith)
	}
	// Low pass: longer slant range and more atmosphere → lower SNR.
	low := g.Budget(geo.SlantRangeKm(780, 10), 10)
	if low.SNRdB >= zenith.SNRdB {
		t.Errorf("low-elevation SNR %v should be below zenith %v", low.SNRdB, zenith.SNRdB)
	}
	// The link still closes at a 10° mask — the default service threshold.
	if !low.Closed {
		t.Errorf("ground link should close at 10° elevation: %v", low)
	}
}

func TestGroundLinkBandwidthGoverned(t *testing.T) {
	g := DefaultGroundLink()
	g.Ground.BandwidthHz = 1e6 // narrowband ground station
	b := g.Budget(1000, 45)
	// Capacity must be limited by the 1 MHz ground bandwidth, not the
	// satellite's 250 MHz.
	if b.CapacityBps > 50e6 {
		t.Errorf("capacity %v not governed by narrow ground bandwidth", b.CapacityBps)
	}
}
