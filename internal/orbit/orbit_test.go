package orbit

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/openspace-project/openspace/internal/geo"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCircularConstructor(t *testing.T) {
	e := Circular(780, 86.4, 30, 45)
	if e.SemiMajorAxisKm != geo.EarthRadiusKm+780 {
		t.Errorf("semi-major axis = %v", e.SemiMajorAxisKm)
	}
	if e.Eccentricity != 0 || e.ArgPerigeeDeg != 0 {
		t.Error("circular orbit must have e=0, ω=0")
	}
	if err := e.Validate(); err != nil {
		t.Errorf("valid circular orbit rejected: %v", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Elements{
		{},                    // zero value
		{SemiMajorAxisKm: -1}, // negative a
		{SemiMajorAxisKm: 7000, Eccentricity: 1.0},   // parabolic
		{SemiMajorAxisKm: 7000, Eccentricity: -0.1},  // negative e
		{SemiMajorAxisKm: 6000},                      // inside Earth
		{SemiMajorAxisKm: 7000, Eccentricity: 0.2},   // perigee inside Earth (5600 km)
		{SemiMajorAxisKm: 7151, InclinationDeg: 190}, // bad inclination
		{SemiMajorAxisKm: 7151, InclinationDeg: -1},
		{SemiMajorAxisKm: math.NaN()},
		{SemiMajorAxisKm: math.Inf(1)},
		{SemiMajorAxisKm: 7151, Eccentricity: math.NaN()},
		{SemiMajorAxisKm: 7151, InclinationDeg: math.NaN()},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: %+v should be invalid", i, e)
		}
	}
	good := Circular(780, 86.4, 0, 0)
	if err := good.Validate(); err != nil {
		t.Errorf("good orbit rejected: %v", err)
	}
}

func TestPeriodIridium(t *testing.T) {
	// Iridium's 780 km orbit has a ~100.4-minute period.
	e := Circular(780, 86.4, 0, 0)
	period := e.PeriodS() / 60
	if period < 100 || period > 101 {
		t.Errorf("780 km period = %.2f min, want ~100.4", period)
	}
}

func TestPositionRadiusConstant(t *testing.T) {
	// A circular orbit keeps constant radius at all times.
	e := Circular(780, 55, 120, 77)
	want := geo.EarthRadiusKm + 780
	for _, tt := range []float64{0, 100, 1000, 5000, 86400} {
		r := e.PositionECI(tt).Norm()
		if !almostEqual(r, want, 1e-6) {
			t.Errorf("t=%v: radius %v, want %v", tt, r, want)
		}
		recef := e.PositionECEF(tt).Norm()
		if !almostEqual(recef, want, 1e-6) {
			t.Errorf("t=%v: ECEF radius %v, want %v", tt, recef, want)
		}
	}
}

func TestPositionPeriodicity(t *testing.T) {
	// After one orbital period the ECI position repeats.
	e := Circular(780, 86.4, 40, 10)
	p0 := e.PositionECI(0)
	p1 := e.PositionECI(e.PeriodS())
	if p0.DistanceKm(p1) > 1e-3 {
		t.Errorf("position after one period differs by %v km", p0.DistanceKm(p1))
	}
}

func TestEquatorialOrbitStaysEquatorial(t *testing.T) {
	e := Circular(780, 0, 0, 0)
	for _, tt := range []float64{0, 500, 2000, 4000} {
		p := e.PositionECI(tt)
		if math.Abs(p.Z) > 1e-6 {
			t.Errorf("equatorial orbit has z=%v at t=%v", p.Z, tt)
		}
	}
}

func TestPolarOrbitReachesPoles(t *testing.T) {
	e := Circular(780, 90, 0, 0)
	// Max |latitude| over one period should approach 90°.
	maxLat := 0.0
	period := e.PeriodS()
	for tt := 0.0; tt < period; tt += period / 720 {
		lat := math.Abs(e.PositionECI(tt).LatLon().Lat)
		if lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat < 89.5 {
		t.Errorf("polar orbit max latitude = %v, want ~90", maxLat)
	}
}

func TestInclinationBoundsLatitude(t *testing.T) {
	// |latitude| never exceeds inclination (for i ≤ 90).
	f := func(incl, raan, ma, tfrac float64) bool {
		incl = math.Mod(math.Abs(incl), 90)
		raan = math.Mod(math.Abs(raan), 360)
		ma = math.Mod(math.Abs(ma), 360)
		e := Circular(780, incl, raan, ma)
		tt := math.Mod(math.Abs(tfrac), 1) * e.PeriodS()
		lat := math.Abs(e.PositionECI(tt).LatLon().Lat)
		return lat <= incl+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestECEFRotation(t *testing.T) {
	// A satellite fixed in ECI drifts westward in ECEF at Earth's rate.
	e := Circular(780, 0, 0, 0)
	lon0 := e.PositionECEF(0).LatLon().Lon
	dt := 600.0
	lon1 := e.PositionECEF(dt).LatLon().Lon
	// Satellite eastward motion (mean motion) minus Earth rotation.
	wantDrift := geo.Degrees((e.MeanMotionRadS() - geo.EarthRotationRadS) * dt)
	drift := math.Mod(lon1-lon0+540, 360) - 180
	if !almostEqual(drift, wantDrift, 1e-6) {
		t.Errorf("ECEF longitude drift = %v°, want %v°", drift, wantDrift)
	}
}

func TestSolveKepler(t *testing.T) {
	// e=0: E == M for any M.
	for _, m := range []float64{-7, -1, 0, 0.5, 3, 9} {
		got, err := SolveKepler(m, 0)
		if err != nil || got != m {
			t.Errorf("SolveKepler(%v, 0) = %v, %v", m, got, err)
		}
	}
	// Solutions satisfy Kepler's equation.
	f := func(m, e float64) bool {
		m = math.Mod(m, 4*math.Pi)
		e = math.Mod(math.Abs(e), 0.95)
		ea, err := SolveKepler(m, e)
		if err != nil {
			return false
		}
		return math.Abs(ea-e*math.Sin(ea)-m) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEccentricOrbitApsides(t *testing.T) {
	// An eccentric orbit's radius oscillates between a(1-e) and a(1+e).
	e := Elements{
		SemiMajorAxisKm: 8000,
		Eccentricity:    0.1,
		InclinationDeg:  30,
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("orbit invalid: %v", err)
	}
	minR, maxR := math.Inf(1), 0.0
	period := e.PeriodS()
	for tt := 0.0; tt < period; tt += period / 2000 {
		r := e.PositionECI(tt).Norm()
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if !almostEqual(minR, 8000*0.9, 1) {
		t.Errorf("perigee radius = %v, want %v", minR, 8000*0.9)
	}
	if !almostEqual(maxR, 8000*1.1, 1) {
		t.Errorf("apogee radius = %v, want %v", maxR, 8000*1.1)
	}
}
