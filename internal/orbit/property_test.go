package orbit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/openspace-project/openspace/internal/geo"
)

// TestVisVivaEnergyConservation checks that propagated positions satisfy
// the vis-viva relation: for a two-body orbit, v² = μ(2/r − 1/a) at every
// point, i.e. specific orbital energy −μ/2a is conserved. Velocity is
// estimated by central differencing.
func TestVisVivaEnergyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		e := Elements{
			SemiMajorAxisKm: 7000 + rng.Float64()*3000,
			Eccentricity:    rng.Float64() * 0.05,
			InclinationDeg:  rng.Float64() * 180,
			RAANDeg:         rng.Float64() * 360,
			ArgPerigeeDeg:   rng.Float64() * 360,
			MeanAnomalyDeg:  rng.Float64() * 360,
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("generated invalid orbit: %v", err)
		}
		period := e.PeriodS()
		for _, frac := range []float64{0.1, 0.37, 0.5, 0.81} {
			tt := frac * period
			const dt = 0.05
			p0 := e.PositionECI(tt - dt)
			p1 := e.PositionECI(tt + dt)
			pm := e.PositionECI(tt)
			v := p1.Sub(p0).Scale(1 / (2 * dt)).Norm()
			r := pm.Norm()
			want := math.Sqrt(geo.EarthMuKm3S2 * (2/r - 1/e.SemiMajorAxisKm))
			if math.Abs(v-want)/want > 1e-5 {
				t.Fatalf("trial %d t=%.0f: speed %v, vis-viva %v", trial, tt, v, want)
			}
		}
	}
}

// TestAngularMomentumConstant checks the second conserved quantity: the
// specific angular momentum vector r × v is fixed in the inertial frame.
func TestAngularMomentumConstant(t *testing.T) {
	e := Elements{
		SemiMajorAxisKm: 7151, Eccentricity: 0.02,
		InclinationDeg: 63.4, RAANDeg: 120, ArgPerigeeDeg: 270,
	}
	const dt = 0.05
	h0 := momentumAt(e, 100, dt)
	for _, tt := range []float64{500, 1500, 3000, 5000} {
		h := momentumAt(e, tt, dt)
		if h.Sub(h0).Norm()/h0.Norm() > 1e-5 {
			t.Fatalf("angular momentum drifted at t=%v: %v vs %v", tt, h, h0)
		}
	}
}

func momentumAt(e Elements, t, dt float64) geo.Vec3 {
	p0 := e.PositionECI(t - dt)
	p1 := e.PositionECI(t + dt)
	v := p1.Sub(p0).Scale(1 / (2 * dt))
	return cross(e.PositionECI(t), v)
}

// cross returns the cross product a × b.
func cross(a, b geo.Vec3) geo.Vec3 {
	return geo.Vec3{
		X: a.Y*b.Z - a.Z*b.Y,
		Y: a.Z*b.X - a.X*b.Z,
		Z: a.X*b.Y - a.Y*b.X,
	}
}

// TestECIAndECEFConsistent checks the frames agree on radius and z (the
// rotation is about the z-axis).
func TestECIAndECEFConsistent(t *testing.T) {
	f := func(incl, raan, ma, tfrac float64) bool {
		incl = math.Mod(math.Abs(incl), 180)
		raan = math.Mod(math.Abs(raan), 360)
		ma = math.Mod(math.Abs(ma), 360)
		e := Circular(780, incl, raan, ma)
		tt := math.Mod(math.Abs(tfrac), 2) * e.PeriodS()
		eci := e.PositionECI(tt)
		ecef := e.PositionECEF(tt)
		return math.Abs(eci.Norm()-ecef.Norm()) < 1e-6 &&
			math.Abs(eci.Z-ecef.Z) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWalkerSymmetry checks that rotating time by one in-plane spacing
// period maps each Walker satellite onto its neighbour's track: the
// constellation is invariant under its own symmetry group.
func TestWalkerSymmetry(t *testing.T) {
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	// Plane 0's satellites: s and s+1 differ by 360/11 degrees of mean
	// anomaly, i.e. 1/11 of a period in time.
	period := c.Satellites[0].Elements.PeriodS()
	shift := period / 11
	for s := 0; s < 10; s++ {
		a := c.Satellites[s].Elements
		b := c.Satellites[s+1].Elements
		pa := a.PositionECI(shift)
		pb := b.PositionECI(0)
		if pa.DistanceKm(pb) > 1e-3 {
			t.Fatalf("satellite %d shifted by one spacing is %v km from satellite %d",
				s, pa.DistanceKm(pb), s+1)
		}
	}
}
