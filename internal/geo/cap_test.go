package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFootprintAngularRadius(t *testing.T) {
	// Zero altitude → zero footprint.
	if got := FootprintAngularRadius(0, 0); got != 0 {
		t.Errorf("zero-altitude footprint = %v", got)
	}
	// Iridium-like: 780 km, 0° mask → acos(Re/(Re+h)) ≈ 0.4658 rad (26.7°).
	got := FootprintAngularRadius(780, 0)
	want := math.Acos(EarthRadiusKm / (EarthRadiusKm + 780))
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("780 km footprint = %v, want %v", got, want)
	}
	// Raising the elevation mask strictly shrinks the footprint.
	prev := got
	for _, el := range []float64{5, 10, 25, 40, 60} {
		r := FootprintAngularRadius(780, el)
		if r >= prev {
			t.Fatalf("footprint did not shrink with elevation mask %v: %v >= %v", el, r, prev)
		}
		prev = r
	}
	// Higher altitude strictly grows the footprint at fixed mask.
	prev = 0
	for _, h := range []float64{300, 550, 780, 1200, 35786} {
		r := FootprintAngularRadius(h, 10)
		if r <= prev {
			t.Fatalf("footprint did not grow with altitude %v", h)
		}
		prev = r
	}
}

func TestSlantRange(t *testing.T) {
	// At 90° elevation the slant range equals the altitude.
	if got := SlantRangeKm(780, 90); !almostEqual(got, 780, 1e-6) {
		t.Errorf("zenith slant range = %v, want 780", got)
	}
	// Slant range grows as elevation drops.
	prev := 0.0
	for _, el := range []float64{90, 60, 30, 10, 5, 0} {
		d := SlantRangeKm(780, el)
		if d < prev {
			t.Fatalf("slant range decreased at elevation %v", el)
		}
		prev = d
	}
	// Horizon slant range for h=780: sqrt((Re+h)² − Re²) ≈ 3294 km.
	want := math.Sqrt(math.Pow(EarthRadiusKm+780, 2) - EarthRadiusKm*EarthRadiusKm)
	if got := SlantRangeKm(780, 0); !almostEqual(got, want, 1e-6) {
		t.Errorf("horizon slant range = %v, want %v", got, want)
	}
}

func TestCapArea(t *testing.T) {
	// Hemisphere.
	h := Cap{Center: LatLon{90, 0}, AngularRadius: math.Pi / 2}
	if got := h.AreaKm2(); !almostEqual(got, EarthSurfaceAreaKm2/2, 1) {
		t.Errorf("hemisphere area = %v, want %v", got, EarthSurfaceAreaKm2/2)
	}
	// Full sphere.
	f := Cap{AngularRadius: math.Pi}
	if got := f.AreaKm2(); !almostEqual(got, EarthSurfaceAreaKm2, 1) {
		t.Errorf("full-sphere area = %v", got)
	}
	// Zero cap.
	if got := (Cap{}).AreaKm2(); got != 0 {
		t.Errorf("zero cap area = %v", got)
	}
}

func TestCapContains(t *testing.T) {
	c := Cap{Center: LatLon{0, 0}, AngularRadius: Radians(10)}
	if !c.Contains(LatLon{0, 0}) || !c.Contains(LatLon{9.99, 0}) {
		t.Error("cap should contain its centre and interior points")
	}
	if c.Contains(LatLon{10.01, 0}) || c.Contains(LatLon{0, 60}) {
		t.Error("cap should not contain exterior points")
	}
}

func TestCapOverlaps(t *testing.T) {
	a := Cap{Center: LatLon{0, 0}, AngularRadius: Radians(10)}
	b := Cap{Center: LatLon{0, 15}, AngularRadius: Radians(10)}
	c := Cap{Center: LatLon{0, 25}, AngularRadius: Radians(4)}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c do not overlap")
	}
	if !b.Overlaps(c) {
		t.Error("b and c overlap")
	}
}

func TestFibonacciGrid(t *testing.T) {
	if got := FibonacciGrid(0); got != nil {
		t.Error("empty grid for n<=0")
	}
	n := 5000
	grid := FibonacciGrid(n)
	if len(grid) != n {
		t.Fatalf("grid size = %d", len(grid))
	}
	for i, p := range grid {
		if !p.Valid() {
			t.Fatalf("grid point %d invalid: %v", i, p)
		}
	}
	// Uniformity check: each hemisphere holds ~half the points.
	north := 0
	for _, p := range grid {
		if p.Lat > 0 {
			north++
		}
	}
	if north < n*45/100 || north > n*55/100 {
		t.Errorf("northern hemisphere has %d of %d points; grid not uniform", north, n)
	}
	// Determinism.
	again := FibonacciGrid(n)
	for i := range grid {
		if grid[i] != again[i] {
			t.Fatal("FibonacciGrid is not deterministic")
		}
	}
}

func TestExactCoverageFraction(t *testing.T) {
	if got := ExactCoverageFraction(nil, 1000); got != 0 {
		t.Errorf("no caps → coverage %v", got)
	}
	// A full-sphere cap covers everything.
	full := []Cap{{AngularRadius: math.Pi}}
	if got := ExactCoverageFraction(full, 1000); got != 1 {
		t.Errorf("full sphere coverage = %v", got)
	}
	// A hemisphere covers half, within sampling error.
	hemi := []Cap{{Center: LatLon{90, 0}, AngularRadius: math.Pi / 2}}
	if got := ExactCoverageFraction(hemi, 20000); math.Abs(got-0.5) > 0.02 {
		t.Errorf("hemisphere coverage = %v, want ~0.5", got)
	}
	// Two disjoint caps add up.
	two := []Cap{
		{Center: LatLon{90, 0}, AngularRadius: Radians(20)},
		{Center: LatLon{-90, 0}, AngularRadius: Radians(20)},
	}
	single := ExactCoverageFraction(two[:1], 20000)
	both := ExactCoverageFraction(two, 20000)
	if math.Abs(both-2*single) > 0.01 {
		t.Errorf("disjoint caps: single=%v both=%v, want both≈2·single", single, both)
	}
}

// oracleCoverage is the reference coverage loop: each grid point is
// tested against the caps in order with Cap.Contains until one covers it.
func oracleCoverage(caps []Cap, grid []LatLon) float64 {
	if len(caps) == 0 || len(grid) == 0 {
		return 0
	}
	covered := 0
	for _, p := range grid {
		for _, c := range caps {
			if c.Contains(p) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(grid))
}

// checkAgainstOracle requires the kernel's decision for every (grid point,
// cap) pair to equal Cap.Contains, and g.Fraction(caps) to be bit-equal to
// the oracle loop over FibonacciGrid. It returns how many pairs fell in the
// band where the kernel defers to Contains.
func checkAgainstOracle(t testing.TB, g *CoverageGrid, caps []Cap) (band int) {
	t.Helper()
	var one CoverageGrid
	for j, c := range caps {
		ct := newCapTest(c)
		tests := []capTest{ct}
		for i, p := range g.points {
			one.points, one.units = g.points[i:i+1], g.units[i:i+1]
			got := one.covered(caps[j:j+1], tests) == 1
			if want := c.Contains(p); got != want {
				t.Fatalf("cap %d %+v, grid point %d %+v: kernel says %v, Contains says %v", j, c, i, p, got, want)
			}
			if d := g.units[i].Dot(ct.center); !(d < ct.lo) && !(d > ct.hi) {
				band++
			}
		}
	}
	got, want := g.Fraction(caps), oracleCoverage(caps, FibonacciGrid(len(g.points)))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Fraction = %v, oracle loop = %v", got, want)
	}
	return band
}

// randomSurfacePoint draws a point uniformly over the sphere.
func randomSurfacePoint(rng *rand.Rand) LatLon {
	return LatLon{Lat: Degrees(math.Asin(2*rng.Float64() - 1)), Lon: 360*rng.Float64() - 180}
}

func TestCoverageGridMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	g := NewCoverageGrid(n)
	if len(g.points) != n || len(g.units) != n {
		t.Fatalf("grid holds %d points and %d vectors, want %d", len(g.points), len(g.units), n)
	}
	footprint := FootprintAngularRadius(780, 0)

	var random []Cap
	for i := 0; i < 40; i++ {
		random = append(random, Cap{Center: randomSurfacePoint(rng), AngularRadius: math.Pi * rng.Float64()})
	}
	// More caps than Fraction converts on the stack.
	var many []Cap
	for i := 0; i < 2*coverageStackCaps; i++ {
		many = append(many, Cap{Center: randomSurfacePoint(rng), AngularRadius: footprint / 4})
	}
	var radii []Cap
	for _, r := range []float64{0, 1e-300, 1e-12, 1e-6, footprint, math.Pi / 2, math.Pi, math.Pi + 1e-12, 4, 2 * math.Pi,
		math.Inf(1), -1e-12, -1, math.Inf(-1)} {
		for _, c := range []LatLon{randomSurfacePoint(rng), g.points[rng.Intn(n)], {Lat: 90}, {Lat: -90, Lon: 180}} {
			radii = append(radii, Cap{Center: c, AngularRadius: r})
		}
	}
	// A grid point on the boundary of each cap: the radius is its
	// haversine angle to the centre, so the fallback decides it.
	var boundary []Cap
	for i := 0; i < 60; i++ {
		q := g.points[rng.Intn(n)]
		c := randomSurfacePoint(rng)
		switch i % 4 {
		case 1: // the grid point is the centre
			c = q
		case 2: // the grid point is the antipode
			c = LatLon{Lat: -q.Lat, Lon: q.Lon + 180}.Normalize()
		}
		boundary = append(boundary, Cap{Center: c, AngularRadius: CentralAngle(c, q)})
	}
	nan := []Cap{
		{Center: randomSurfacePoint(rng), AngularRadius: math.NaN()},
		{Center: LatLon{Lat: math.NaN()}, AngularRadius: 1},
		{Center: LatLon{Lat: 100, Lon: 400}, AngularRadius: 1},
	}

	for _, tc := range []struct {
		name string
		caps []Cap
	}{{"random", random}, {"many", many}, {"radii", radii}, {"boundary", boundary}, {"nan", nan}} {
		t.Run(tc.name, func(t *testing.T) {
			band := checkAgainstOracle(t, g, tc.caps)
			t.Logf("%d of %d pairs decided by Contains", band, len(tc.caps)*n)
			switch tc.name {
			case "random", "many":
				if band != 0 {
					t.Errorf("%d generic pairs fell in the fallback band", band)
				}
			case "boundary":
				if band < len(tc.caps) {
					t.Errorf("only %d pairs fell in the fallback band, want at least one per cap", band)
				}
			case "nan":
				if band != len(tc.caps)*n {
					t.Errorf("%d pairs fell in the fallback band, want all %d", band, len(tc.caps)*n)
				}
			}
		})
	}
}

func FuzzCoverageGrid(f *testing.F) {
	f.Add(0.0, 0.0, math.Pi/2, 1000)
	f.Add(90.0, 0.0, 0.0, 17)
	f.Add(-89.9, 179.9, math.Pi, 500)
	f.Add(12.5, -45.0, 1e-9, 1)
	f.Add(33.3, 100.0, 4.0, 64)
	f.Add(-12.5, 45.0, math.NaN(), 100)
	f.Add(100.0, 400.0, 1.0, 64)
	f.Add(0.0, 0.0, -1.0, -5)
	f.Fuzz(func(t *testing.T, lat, lon, radius float64, gridSize int) {
		g := NewCoverageGrid(gridSize % 2048)
		centre := LatLon{Lat: lat, Lon: lon}
		caps := []Cap{{Center: centre, AngularRadius: radius}}
		if len(g.points) > 0 {
			// A second cap with a grid point on its boundary.
			q := g.points[math.Float64bits(radius)%uint64(len(g.points))]
			caps = append(caps, Cap{Center: centre, AngularRadius: CentralAngle(centre, q)})
		}
		checkAgainstOracle(t, g, caps)
	})
}

// TestCoverageSamplingError measures how far a hemisphere's sampled
// coverage is from ½ over 64 random centres. The worst error falls from
// 0.5 % at 10³ points to 0.08 % at 10⁴ and 0.016 % at 10⁵, and the RMS
// error (0.23 %, 0.034 %, 0.006 %) falls about as n^(−3/4): faster than
// Monte Carlo's n^(−1/2), slower than 1/n.
func TestCoverageSamplingError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centres := make([]LatLon, 64)
	for i := range centres {
		centres[i] = randomSurfacePoint(rng)
	}
	var prevRMS float64
	for _, tc := range []struct {
		n        int
		maxWorst float64
	}{{1000, 0.006}, {10000, 0.001}, {100000, 0.0002}} {
		g := NewCoverageGrid(tc.n)
		var worst, sumSq float64
		for _, c := range centres {
			e := math.Abs(g.Fraction([]Cap{{Center: c, AngularRadius: math.Pi / 2}}) - 0.5)
			worst = math.Max(worst, e)
			sumSq += e * e
		}
		rms := math.Sqrt(sumSq / float64(len(centres)))
		t.Logf("n=%d: worst error %.2g, RMS %.2g", tc.n, worst, rms)
		if worst > tc.maxWorst {
			t.Errorf("n=%d: worst hemisphere error %.2g, want ≤ %.2g", tc.n, worst, tc.maxWorst)
		}
		if prevRMS > 0 {
			// 10× the points: n^(−3/4) divides the RMS by 5.6; accept the
			// span between n^(−1/2) (3.2) and 1/n (10).
			if ratio := prevRMS / rms; ratio < 3.2 || ratio > 10 {
				t.Errorf("n=%d: RMS error fell %.2f× for 10× the points, want 3.2–10×", tc.n, ratio)
			}
		}
		prevRMS = rms
	}
}

func TestWorstCaseCoverageFraction(t *testing.T) {
	if got := WorstCaseCoverageFraction(nil); got != 0 {
		t.Errorf("no caps → %v", got)
	}
	r := FootprintAngularRadius(780, 0)
	capAt := func(p LatLon) Cap { return Cap{Center: p, AngularRadius: r} }
	one := WorstCaseCoverageFraction([]Cap{capAt(LatLon{0, 0})})
	wantOne := capAt(LatLon{0, 0}).AreaKm2() / EarthSurfaceAreaKm2
	if !almostEqual(one, wantOne, 1e-12) {
		t.Errorf("single cap coverage = %v, want %v", one, wantOne)
	}
	// Two fully overlapping satellites count once (the paper's rule).
	twoSame := WorstCaseCoverageFraction([]Cap{capAt(LatLon{0, 0}), capAt(LatLon{0, 1})})
	if !almostEqual(twoSame, one, 1e-12) {
		t.Errorf("overlapping pair coverage = %v, want %v", twoSame, one)
	}
	// Two antipodal satellites count twice.
	twoFar := WorstCaseCoverageFraction([]Cap{capAt(LatLon{0, 0}), capAt(LatLon{0, 180})})
	if !almostEqual(twoFar, 2*one, 1e-12) {
		t.Errorf("disjoint pair coverage = %v, want %v", twoFar, 2*one)
	}
	// A chain a–b–c where only neighbours overlap: (a,b) collapse to one
	// cap, c stands alone → two caps' worth of coverage.
	chain := []Cap{capAt(LatLon{0, 0}), capAt(LatLon{0, 40}), capAt(LatLon{0, 80})}
	if got := WorstCaseCoverageFraction(chain); !almostEqual(got, 2*one, 1e-12) {
		t.Errorf("chain coverage = %v, want %v (pair + single)", got, 2*one)
	}
	// Four co-located satellites collapse into two pairs.
	four := []Cap{capAt(LatLon{0, 0}), capAt(LatLon{0, 1}), capAt(LatLon{0, 2}), capAt(LatLon{0, 3})}
	if got := WorstCaseCoverageFraction(four); !almostEqual(got, 2*one, 1e-12) {
		t.Errorf("four co-located coverage = %v, want %v", got, 2*one)
	}
}

func TestWorstCaseBounds(t *testing.T) {
	// The paper's rule always lies between one cap's area (everything
	// pairs down) and the plain sum of areas (nothing overlaps), capped at 1.
	f := func(seeds []LatLon) bool {
		if len(seeds) == 0 || len(seeds) > 20 {
			return true
		}
		r := FootprintAngularRadius(780, 10)
		caps := make([]Cap, len(seeds))
		var sum, largest float64
		for i, s := range seeds {
			caps[i] = Cap{Center: s.Normalize(), AngularRadius: r}
			a := caps[i].AreaKm2()
			sum += a
			if a > largest {
				largest = a
			}
		}
		wc := WorstCaseCoverageFraction(caps)
		lo := math.Min(1, largest/EarthSurfaceAreaKm2)
		hi := math.Min(1, sum/EarthSurfaceAreaKm2)
		// A pair never reports more than the plain sum, and at least half.
		return wc >= lo-1e-12 && wc <= hi+1e-12 && wc >= hi/2-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
