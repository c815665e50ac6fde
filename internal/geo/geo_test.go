package geo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

const floatTol = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestLatLonString(t *testing.T) {
	tests := []struct {
		in   LatLon
		want string
	}{
		{LatLon{40.4406, -79.9959}, "40.4406°N 79.9959°W"},
		{LatLon{-33.8688, 151.2093}, "33.8688°S 151.2093°E"},
		{LatLon{0, 0}, "0.0000°N 0.0000°E"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestLatLonValid(t *testing.T) {
	valid := []LatLon{{0, 0}, {90, 180}, {-90, -180}, {45.5, -120.25}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []LatLon{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct {
		in, want LatLon
	}{
		{LatLon{0, 190}, LatLon{0, -170}},
		{LatLon{0, -190}, LatLon{0, 170}},
		{LatLon{0, 360}, LatLon{0, 0}},
		{LatLon{0, 540}, LatLon{0, 180}},
		{LatLon{95, 0}, LatLon{90, 0}},
		{LatLon{-95, 0}, LatLon{-90, 0}},
	}
	for _, tc := range tests {
		got := tc.in.Normalize()
		if !almostEqual(got.Lat, tc.want.Lat, floatTol) || !almostEqual(got.Lon, tc.want.Lon, floatTol) {
			t.Errorf("Normalize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeAlwaysValid(t *testing.T) {
	f := func(lat, lon float64) bool {
		if math.IsNaN(lat) || math.IsNaN(lon) || math.IsInf(lat, 0) || math.IsInf(lon, 0) {
			return true // out of scope
		}
		// Keep magnitudes sane so Mod stays exact enough.
		lat = math.Mod(lat, 1e6)
		lon = math.Mod(lon, 1e6)
		return LatLon{lat, lon}.Normalize().Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCentralAngleKnownPairs(t *testing.T) {
	// Pole to pole is π; equator quarter turn is π/2.
	if got := CentralAngle(LatLon{90, 0}, LatLon{-90, 0}); !almostEqual(got, math.Pi, 1e-12) {
		t.Errorf("pole-to-pole central angle = %v, want π", got)
	}
	if got := CentralAngle(LatLon{0, 0}, LatLon{0, 90}); !almostEqual(got, math.Pi/2, 1e-12) {
		t.Errorf("quarter-equator central angle = %v, want π/2", got)
	}
	if got := CentralAngle(LatLon{12, 34}, LatLon{12, 34}); got != 0 {
		t.Errorf("self central angle = %v, want 0", got)
	}
}

func TestSurfaceDistanceKnown(t *testing.T) {
	// Pittsburgh to London, known to be ~5935 km on the sphere.
	pit := LatLon{40.4406, -79.9959}
	lon := LatLon{51.5074, -0.1278}
	d := SurfaceDistanceKm(pit, lon)
	if d < 5850 || d > 6050 {
		t.Errorf("Pittsburgh-London distance = %.1f km, want ~5935 km", d)
	}
}

func TestCentralAngleSymmetric(t *testing.T) {
	f := func(a, b LatLon) bool {
		a, b = a.Normalize(), b.Normalize()
		return almostEqual(CentralAngle(a, b), CentralAngle(b, a), 1e-12)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestCentralAngleTriangleInequality(t *testing.T) {
	f := func(a, b, c LatLon) bool {
		a, b, c = a.Normalize(), b.Normalize(), c.Normalize()
		return CentralAngle(a, c) <= CentralAngle(a, b)+CentralAngle(b, c)+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// initialBearing is the forward-azimuth formula, in degrees clockwise from
// north: the oracle Destination must invert.
func initialBearing(a, b LatLon) float64 {
	la, lo := a.Radians()
	lb, lp := b.Radians()
	dLon := lp - lo
	y := math.Sin(dLon) * math.Cos(lb)
	x := math.Cos(la)*math.Sin(lb) - math.Sin(la)*math.Cos(lb)*math.Cos(dLon)
	return Degrees(math.Atan2(y, x))
}

func TestDestinationRoundTrip(t *testing.T) {
	// Travelling distance d along the bearing to b from a must land within
	// numerical tolerance of b when d = distance(a,b).
	f := func(a, b LatLon) bool {
		a, b = a.Normalize(), b.Normalize()
		// Skip near-polar and near-antipodal degeneracies.
		if math.Abs(a.Lat) > 85 || math.Abs(b.Lat) > 85 {
			return true
		}
		d := SurfaceDistanceKm(a, b)
		if d < 1 || d > 19000 {
			return true
		}
		got := Destination(a, initialBearing(a, b), d)
		return CentralAngle(got, b) < 1e-6
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestDestinationDistance(t *testing.T) {
	// The point returned by Destination must be the requested distance away.
	p := LatLon{40, -80}
	for _, d := range []float64{1, 100, 1000, 5000, 10000} {
		for _, brg := range []float64{0, 45, 90, 135, 271.5} {
			got := Destination(p, brg, d)
			if gd := SurfaceDistanceKm(p, got); !almostEqual(gd, d, d*1e-9+1e-6) {
				t.Errorf("Destination(%v,%v,%v) at distance %v, want %v", p, brg, d, gd, d)
			}
		}
	}
}

// quickCfg returns the quick.Config shared by the property tests.
func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300}
}

// Generate implements testing/quick.Generator so property tests draw valid
// geodetic coordinates rather than arbitrary float64 pairs.
func (LatLon) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(LatLon{
		Lat: r.Float64()*180 - 90,
		Lon: r.Float64()*360 - 180,
	})
}
