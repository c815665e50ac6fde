package geo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVec3Arithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

// Generate bounds property-test vectors to orbital magnitudes so products
// cannot overflow float64.
func (Vec3) Generate(r *rand.Rand, _ int) reflect.Value {
	s := func() float64 { return (r.Float64() - 0.5) * 2 * 1e5 }
	return reflect.ValueOf(Vec3{X: s(), Y: s(), Z: s()})
}

func TestLatLonVec3RoundTrip(t *testing.T) {
	f := func(p LatLon) bool {
		got := p.Vec3(0).LatLon()
		// Longitude is meaningless at the poles.
		if math.Abs(p.Lat) > 89.999 {
			return almostEqual(got.Lat, p.Lat, 1e-6)
		}
		return almostEqual(got.Lat, p.Lat, 1e-9) && almostEqual(got.Lon, p.Lon, 1e-9)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestVec3Altitude(t *testing.T) {
	p := LatLon{45, 45}
	for _, alt := range []float64{0, 300, 780, 35786} {
		v := p.Vec3(alt)
		if !almostEqual(v.AltitudeKm(), alt, 1e-9*(1+alt)) {
			t.Errorf("altitude %v round-trips to %v", alt, v.AltitudeKm())
		}
	}
}

func TestLineOfSight(t *testing.T) {
	// Two satellites over the same hemisphere see each other.
	a := LatLon{0, 0}.Vec3(780)
	b := LatLon{0, 30}.Vec3(780)
	if !LineOfSight(a, b) {
		t.Error("nearby satellites should have line of sight")
	}
	// Antipodal LEO satellites are blocked by the Earth.
	c := LatLon{0, 180}.Vec3(780)
	if LineOfSight(a, c) {
		t.Error("antipodal LEO satellites must be blocked by the Earth")
	}
	// Two GEO satellites 120° apart see each other over the limb.
	g1 := LatLon{0, 0}.Vec3(35786)
	g2 := LatLon{0, 120}.Vec3(35786)
	if !LineOfSight(g1, g2) {
		t.Error("GEO satellites 120° apart should have line of sight")
	}
	// Ground point to overhead satellite.
	if !LineOfSight(LatLon{10, 10}.Vec3(0), LatLon{10, 10}.Vec3(780)) {
		t.Error("ground to zenith satellite should have line of sight")
	}
}

func TestLineOfSightSymmetric(t *testing.T) {
	f := func(a, b LatLon, ha, hb float64) bool {
		ha = math.Mod(math.Abs(ha), 2000)
		hb = math.Mod(math.Abs(hb), 2000)
		va := a.Normalize().Vec3(ha)
		vb := b.Normalize().Vec3(hb)
		return LineOfSight(va, vb) == LineOfSight(vb, va)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestElevationDeg(t *testing.T) {
	obs := LatLon{0, 0}
	// Directly overhead → 90°.
	if got := ElevationDeg(obs, obs.Vec3(780)); !almostEqual(got, 90, 1e-9) {
		t.Errorf("zenith elevation = %v, want 90", got)
	}
	// A satellite at the same altitude but far around the curve is below the
	// horizon (negative elevation).
	far := LatLon{0, 90}.Vec3(780)
	if got := ElevationDeg(obs, far); got >= 0 {
		t.Errorf("far satellite elevation = %v, want negative", got)
	}
	// Elevation decreases monotonically as the satellite moves away.
	prev := 90.0
	for lon := 2.0; lon < 30; lon += 2 {
		e := ElevationDeg(obs, LatLon{0, lon}.Vec3(780))
		if e >= prev {
			t.Fatalf("elevation not monotonic: %v then %v at lon %v", prev, e, lon)
		}
		prev = e
	}
}

func TestAngleBetween(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	if got := x.AngleBetween(y); !almostEqual(got, math.Pi/2, 1e-12) {
		t.Errorf("angle x,y = %v, want π/2", got)
	}
	if got := x.AngleBetween(x.Scale(5)); !almostEqual(got, 0, 1e-6) {
		t.Errorf("angle x,5x = %v, want 0", got)
	}
	if got := x.AngleBetween(x.Scale(-2)); !almostEqual(got, math.Pi, 1e-6) {
		t.Errorf("angle x,-2x = %v, want π", got)
	}
	if got := x.AngleBetween(Vec3{}); got != 0 {
		t.Errorf("angle with zero vector = %v, want 0", got)
	}
}
