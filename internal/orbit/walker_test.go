package orbit

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

func TestWalkerValidate(t *testing.T) {
	bad := []WalkerConfig{
		{TotalSats: 0, Planes: 1, AltitudeKm: 780},
		{TotalSats: 10, Planes: 3, AltitudeKm: 780},                   // planes don't divide
		{TotalSats: 12, Planes: 3, PhasingFactor: 3, AltitudeKm: 780}, // F out of range
		{TotalSats: 12, Planes: 3, AltitudeKm: 50},                    // too low
		{TotalSats: 12, Planes: 3, AltitudeKm: math.NaN()},
		{TotalSats: 12, Planes: 3, AltitudeKm: math.Inf(1)},
		{TotalSats: 12, Planes: 3, AltitudeKm: 780, InclinationDeg: 500},
		{TotalSats: 12, Planes: 3, AltitudeKm: 780, InclinationDeg: -20},
		{TotalSats: 12, Planes: 3, AltitudeKm: 780, InclinationDeg: math.NaN()},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: %+v should be invalid", i, w)
		}
	}
	if err := Iridium().Validate(); err != nil {
		t.Errorf("Iridium config invalid: %v", err)
	}
	if err := CBOReference().Validate(); err != nil {
		t.Errorf("CBO config invalid: %v", err)
	}
}

func TestWalkerBuildStructure(t *testing.T) {
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 66 {
		t.Fatalf("Iridium has %d satellites, want 66", c.Len())
	}
	// 6 distinct RAANs spread over 180° (Star).
	raans := map[float64]int{}
	for _, s := range c.Satellites {
		raans[s.Elements.RAANDeg]++
		if alt := s.Elements.SemiMajorAxisKm - geo.EarthRadiusKm; alt != 780 {
			t.Fatalf("satellite %s altitude %v, want 780", s.ID, alt)
		}
		if s.Elements.InclinationDeg != 86.4 {
			t.Fatalf("satellite %s inclination %v", s.ID, s.Elements.InclinationDeg)
		}
	}
	if len(raans) != 6 {
		t.Fatalf("found %d planes, want 6", len(raans))
	}
	for raan, n := range raans {
		if n != 11 {
			t.Errorf("plane RAAN=%v has %d satellites, want 11", raan, n)
		}
		if raan < 0 || raan >= 180 {
			t.Errorf("star RAAN %v outside [0,180)", raan)
		}
	}
	// IDs unique.
	ids := map[string]bool{}
	for _, s := range c.Satellites {
		if ids[s.ID] {
			t.Fatalf("duplicate ID %s", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestWalkerDeltaSpread(t *testing.T) {
	w := WalkerConfig{
		TotalSats: 12, Planes: 4, PhasingFactor: 1,
		AltitudeKm: 550, InclinationDeg: 53, Star: false,
	}
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	maxRAAN := 0.0
	for _, s := range c.Satellites {
		maxRAAN = math.Max(maxRAAN, s.Elements.RAANDeg)
	}
	if maxRAAN != 270 {
		t.Errorf("delta max RAAN = %v, want 270 (4 planes over 360°)", maxRAAN)
	}
}

func TestWalkerInPlaneSpacing(t *testing.T) {
	// Satellites in the same plane are evenly separated in mean anomaly so
	// intra-plane ISLs have constant length (the Walker advantage the paper
	// cites for sustained ISLs).
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	// Pick plane 0's satellites in order.
	var mas []float64
	for _, s := range c.Satellites {
		if s.Elements.RAANDeg == 0 {
			mas = append(mas, s.Elements.MeanAnomalyDeg)
		}
	}
	if len(mas) != 11 {
		t.Fatalf("plane 0 has %d satellites", len(mas))
	}
	for i := 1; i < len(mas); i++ {
		gap := mas[i] - mas[i-1]
		if !almostEqual(gap, 360.0/11, 1e-9) {
			t.Errorf("in-plane gap %v, want %v", gap, 360.0/11)
		}
	}
	// Verify constant intra-plane range over time.
	s0, s1 := c.Satellites[0], c.Satellites[1]
	d0 := s0.Elements.PositionECI(0).DistanceKm(s1.Elements.PositionECI(0))
	d1 := s0.Elements.PositionECI(3000).DistanceKm(s1.Elements.PositionECI(3000))
	if !almostEqual(d0, d1, 1e-6) {
		t.Errorf("intra-plane ISL length changed: %v → %v", d0, d1)
	}
}

func TestRandomCircular(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := RandomCircular(50, 780, rng)
	if c.Len() != 50 {
		t.Fatalf("got %d satellites", c.Len())
	}
	for _, s := range c.Satellites {
		if err := s.Elements.Validate(); err != nil {
			t.Fatalf("satellite %s invalid: %v", s.ID, err)
		}
		if alt := s.Elements.SemiMajorAxisKm - geo.EarthRadiusKm; alt != 780 {
			t.Fatalf("satellite %s altitude %v", s.ID, alt)
		}
	}
	// Determinism for a fixed seed.
	again := RandomCircular(50, 780, rand.New(rand.NewSource(42)))
	for i := range c.Satellites {
		if c.Satellites[i].Elements != again.Satellites[i].Elements {
			t.Fatal("RandomCircular not deterministic for fixed seed")
		}
	}
	// Different seeds differ.
	other := RandomCircular(50, 780, rand.New(rand.NewSource(43)))
	same := true
	for i := range c.Satellites {
		if c.Satellites[i].Elements != other.Satellites[i].Elements {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical constellations")
	}
	// Names and IDs are part of every snapshot and CSV built from a fleet.
	ten := RandomCircular(10, 780, rand.New(rand.NewSource(1)))
	var ids []string
	for _, s := range ten.Satellites {
		ids = append(ids, s.ID)
	}
	want := []string{"rand-0", "rand-1", "rand-2", "rand-3", "rand-4", "rand-5", "rand-6", "rand-7", "rand-8", "rand-9"}
	if ten.Name != "random-10" || !slices.Equal(ids, want) {
		t.Fatalf("fleet %q with IDs %q, want %q with %q", ten.Name, ids, "random-10", want)
	}
}
