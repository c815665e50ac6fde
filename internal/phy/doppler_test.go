package phy

import (
	"math"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

func TestDopplerShiftBasics(t *testing.T) {
	// 7.5 km/s closing at 2.25 GHz → +56.3 kHz.
	got := DopplerShiftHz(2.25e9, 7.5)
	want := 2.25e9 * 7.5 / SpeedOfLightKmS
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("shift = %v, want %v", got, want)
	}
	// Receding → negative; stationary → zero.
	if DopplerShiftHz(1e9, -3) >= 0 {
		t.Error("receding transmitter should lower frequency")
	}
	if DopplerShiftHz(1e9, 0) != 0 {
		t.Error("no relative motion → no shift")
	}
}

func TestRadialVelocityThroughPass(t *testing.T) {
	// During an overhead pass the satellite first approaches (positive
	// closing speed), passes closest approach (≈0), then recedes
	// (negative). Use an equatorial orbit and observer.
	e := orbit.Circular(780, 0, 0, 350) // rises toward the observer at lon 0
	obs := geo.LatLon{Lat: 0, Lon: 0}
	// Find the time of closest approach over a quarter orbit.
	bestT, bestR := 0.0, math.Inf(1)
	for tt := 0.0; tt < e.PeriodS()/2; tt += 5 {
		if r := e.RangeKm(obs, tt); r < bestR {
			bestR, bestT = r, tt
		}
	}
	if bestR > 1500 {
		t.Fatalf("pass never gets close: %v km", bestR)
	}
	before := RadialVelocityKmS(e, obs, bestT-120)
	at := RadialVelocityKmS(e, obs, bestT)
	after := RadialVelocityKmS(e, obs, bestT+120)
	if before <= 0 {
		t.Errorf("approaching phase closing speed = %v, want > 0", before)
	}
	if math.Abs(at) > 0.8 {
		t.Errorf("closest-approach radial velocity = %v, want ≈ 0", at)
	}
	if after >= 0 {
		t.Errorf("receding phase closing speed = %v, want < 0", after)
	}
	// LEO radial velocities stay below orbital speed (~7.5 km/s).
	for _, v := range []float64{before, at, after} {
		if math.Abs(v) > 8 {
			t.Errorf("radial velocity %v km/s exceeds orbital speed", v)
		}
	}
}

func TestDopplerProfile(t *testing.T) {
	// Sampled every 10 s over a pass, the shift must swing from positive
	// (approach) through zero to negative (recede).
	e := orbit.Circular(780, 0, 0, 350)
	obs := geo.LatLon{Lat: 0, Lon: 0}
	maxS, minS := math.Inf(-1), math.Inf(1)
	for tt := 0.0; tt <= 600; tt += 10 {
		v := DopplerShiftHz(2.25e9, RadialVelocityKmS(e, obs, tt))
		maxS = math.Max(maxS, v)
		minS = math.Min(minS, v)
	}
	if maxS <= 0 || minS >= 0 {
		t.Errorf("shift does not cross zero: [%v, %v]", minS, maxS)
	}
	// S-band LEO Doppler is tens of kHz.
	if maxS < 5e3 || maxS > 100e3 {
		t.Errorf("peak Doppler %v Hz outside LEO S-band range", maxS)
	}
}
