package orbit

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/openspace-project/openspace/internal/geo"
)

// Satellite is one spacecraft: an identifier plus the orbit it flies.
// Higher layers (internal/core) attach ownership and hardware capabilities;
// this package cares only about where the satellite is.
type Satellite struct {
	ID       string
	Elements Elements
}

// Constellation is an ordered set of satellites sharing an epoch.
type Constellation struct {
	Name       string
	Satellites []Satellite
}

// Len returns the number of satellites.
func (c *Constellation) Len() int { return len(c.Satellites) }

// WalkerConfig describes a Walker constellation i:T/P/F — the standard
// notation for symmetric LEO constellations (inclination : total sats /
// planes / phasing factor). Iridium, the paper's reference system (§4), is a
// Walker Star; Starlink shells are Walker Deltas.
type WalkerConfig struct {
	Name           string
	TotalSats      int     // T: total number of satellites
	Planes         int     // P: number of orbital planes (must divide T)
	PhasingFactor  int     // F: inter-plane phase offset, in units of 360/T degrees
	AltitudeKm     float64 // circular orbit altitude
	InclinationDeg float64 // i
	Star           bool    // Star: planes spread over 180°; Delta: over 360°
}

// ValidateAltitude reports whether altKm is a circular-orbit altitude:
// finite and above 100 km.
func ValidateAltitude(altKm float64) error {
	if !(altKm > 100) || math.IsInf(altKm, 1) {
		return fmt.Errorf("altitude %.1f km is not an orbit", altKm)
	}
	return nil
}

// Validate reports whether the configuration is well-formed.
func (w WalkerConfig) Validate() error {
	if w.TotalSats <= 0 {
		return fmt.Errorf("orbit: walker: total satellites %d must be positive", w.TotalSats)
	}
	if w.Planes <= 0 || w.TotalSats%w.Planes != 0 {
		return fmt.Errorf("orbit: walker: planes %d must divide total %d", w.Planes, w.TotalSats)
	}
	if w.PhasingFactor < 0 || w.PhasingFactor >= w.Planes {
		return fmt.Errorf("orbit: walker: phasing factor %d outside [0,%d)", w.PhasingFactor, w.Planes)
	}
	if err := ValidateAltitude(w.AltitudeKm); err != nil {
		return fmt.Errorf("orbit: walker: %w", err)
	}
	if !(w.InclinationDeg >= 0 && w.InclinationDeg <= 180) {
		return fmt.Errorf("orbit: walker: inclination %.2f° outside [0,180]", w.InclinationDeg)
	}
	return nil
}

// Build generates the constellation. Satellite IDs are "<name>-p<plane>s<slot>".
//
// In a Walker Star the ascending nodes are spread across 180° so that
// ascending and descending half-orbits interleave to cover the globe — the
// geometry the paper highlights for "relative simplicity in establishing
// ISLs both on the same orbital plane and adjacent planes". A Walker Delta
// spreads nodes across the full 360°.
func (w WalkerConfig) Build() (*Constellation, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	perPlane := w.TotalSats / w.Planes
	nodeSpread := 360.0
	if w.Star {
		nodeSpread = 180.0
	}
	c := &Constellation{Name: w.resolvedName()}
	for p := 0; p < w.Planes; p++ {
		raan := nodeSpread * float64(p) / float64(w.Planes)
		for s := 0; s < perPlane; s++ {
			// In-plane spacing plus the Walker phasing offset between planes.
			ma := 360.0*float64(s)/float64(perPlane) +
				360.0*float64(w.PhasingFactor)*float64(p)/float64(w.TotalSats)
			c.Satellites = append(c.Satellites, Satellite{
				ID:       w.SatID(p, s),
				Elements: Circular(w.AltitudeKm, w.InclinationDeg, raan, ma),
			})
		}
	}
	return c, nil
}

// Iridium returns the Iridium-like Walker Star used for the paper's Figure
// 2(a): 66 satellites, 6 planes, 780 km. The paper quotes Iridium's "8.4
// degree inclinations", which is the *supplementary* description of its
// near-polar 86.4° planes; we use the standard 86.4°.
func Iridium() WalkerConfig {
	return WalkerConfig{
		Name:           "iridium",
		TotalSats:      66,
		Planes:         6,
		PhasingFactor:  2,
		AltitudeKm:     780,
		InclinationDeg: 86.4,
		Star:           true,
	}
}

// CBOReference returns the US Congressional Budget Office reference
// constellation the paper cites (§4): 72 satellites in 6 planes at 80°
// inclination, providing about 95 % global coverage.
func CBOReference() WalkerConfig {
	return WalkerConfig{
		Name:           "cbo-72",
		TotalSats:      72,
		Planes:         6,
		PhasingFactor:  1,
		AltitudeKm:     780,
		InclinationDeg: 80,
		Star:           true,
	}
}

// RandomCircular generates n satellites on independent random circular
// orbits at the given altitude — the paper's §4 method ("randomly
// distributing satellites orbital paths"), which models the uncoordinated
// launches of many independent OpenSpace providers. Inclinations are drawn
// so that orbit poles are uniform on the sphere; RAAN and phase are uniform.
// The generator is deterministic for a given rng state.
func RandomCircular(n int, altitudeKm float64, rng *rand.Rand) *Constellation {
	c := &Constellation{Name: "random-" + strconv.Itoa(n), Satellites: make([]Satellite, 0, max(n, 0))}
	for i := 0; i < n; i++ {
		// cos(i) uniform in [-1,1] makes the orbit normal uniform on the
		// sphere, avoiding the polar clustering of uniform-inclination
		// sampling.
		incl := degreesAcos(2*rng.Float64() - 1)
		c.Satellites = append(c.Satellites, Satellite{
			ID:       "rand-" + strconv.Itoa(i),
			Elements: Circular(altitudeKm, incl, rng.Float64()*360, rng.Float64()*360),
		})
	}
	return c
}

func degreesAcos(x float64) float64 {
	if x > 1 {
		x = 1
	} else if x < -1 {
		x = -1
	}
	return geo.Degrees(math.Acos(x))
}
