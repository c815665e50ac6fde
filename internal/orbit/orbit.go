// Package orbit implements the two-body orbital mechanics that OpenSpace's
// routing and coverage layers rely on: Keplerian elements, analytic
// propagation, Walker constellation generation, and ground visibility.
//
// The paper's key architectural assumption (§2.2) is that satellite orbits
// are fully predictable — "the radar-tracked orbital paths of satellites are
// well-known and readily available on public websites" — and therefore that
// the network topology can be precomputed by every participant. A two-body
// Keplerian propagator provides exactly that property. Perturbations (J2,
// drag) change *which* topology occurs, not its predictability, so they are
// deliberately out of scope; see DESIGN.md's substitution table.
//
// Frames: PositionECI returns coordinates in an inertial frame whose +X axis
// coincides with the Greenwich meridian at epoch t=0. PositionECEF rotates by
// Earth's sidereal rate so coordinates co-rotate with the ground. All times
// are seconds since a shared epoch.
package orbit

import (
	"errors"
	"fmt"
	"math"

	"github.com/openspace-project/openspace/internal/geo"
)

// Elements is a classical Keplerian element set describing one orbit.
// Angles are degrees at the API boundary (matching constellation
// specifications in the literature); the zero value is invalid — use one of
// the constructors or fill in every field.
type Elements struct {
	SemiMajorAxisKm float64 // a: orbit size, from Earth's centre
	Eccentricity    float64 // e: 0 = circular, <1 for bound orbits
	InclinationDeg  float64 // i: angle between orbit plane and equator
	RAANDeg         float64 // Ω: right ascension of the ascending node
	ArgPerigeeDeg   float64 // ω: orientation of the ellipse in-plane
	MeanAnomalyDeg  float64 // M₀: position along the orbit at epoch
}

// Circular returns the element set of a circular orbit at the given altitude
// above the surface. RAAN and the in-plane phase (mean anomaly) position the
// satellite; the argument of perigee is meaningless for e=0 and set to zero.
func Circular(altitudeKm, inclinationDeg, raanDeg, meanAnomalyDeg float64) Elements {
	return Elements{
		SemiMajorAxisKm: geo.EarthRadiusKm + altitudeKm,
		InclinationDeg:  inclinationDeg,
		RAANDeg:         raanDeg,
		MeanAnomalyDeg:  meanAnomalyDeg,
	}
}

// Validate reports whether the element set describes a bound orbit that does
// not intersect the Earth.
func (e Elements) Validate() error {
	if !(e.SemiMajorAxisKm > 0) || math.IsInf(e.SemiMajorAxisKm, 1) {
		return fmt.Errorf("orbit: semi-major axis %.1f km must be positive and finite", e.SemiMajorAxisKm)
	}
	if !(e.Eccentricity >= 0 && e.Eccentricity < 1) {
		return fmt.Errorf("orbit: eccentricity %.4f outside [0,1)", e.Eccentricity)
	}
	if perigee := e.SemiMajorAxisKm * (1 - e.Eccentricity); !(perigee > geo.EarthRadiusKm) {
		return fmt.Errorf("orbit: perigee %.1f km is inside the Earth", perigee)
	}
	if !(e.InclinationDeg >= 0 && e.InclinationDeg <= 180) {
		return fmt.Errorf("orbit: inclination %.2f° outside [0,180]", e.InclinationDeg)
	}
	return nil
}

// MeanMotionRadS returns the mean motion n = sqrt(μ/a³) in rad/s.
func (e Elements) MeanMotionRadS() float64 {
	a := e.SemiMajorAxisKm
	return math.Sqrt(geo.EarthMuKm3S2 / (a * a * a))
}

// PeriodS returns the orbital period in seconds.
func (e Elements) PeriodS() float64 {
	return 2 * math.Pi / e.MeanMotionRadS()
}

// PositionECI returns the inertial-frame position at t seconds after epoch.
func (e Elements) PositionECI(t float64) geo.Vec3 {
	// Mean anomaly at t.
	m := geo.Radians(e.MeanAnomalyDeg) + e.MeanMotionRadS()*t
	ea, err := SolveKepler(m, e.Eccentricity)
	if err != nil {
		// Unreachable for validated elements (e<1); fall back to the mean
		// anomaly, exact for circular orbits.
		ea = m
	}
	// True anomaly and radius from the eccentric anomaly.
	ecc := e.Eccentricity
	cosE, sinE := math.Cos(ea), math.Sin(ea)
	r := e.SemiMajorAxisKm * (1 - ecc*cosE)
	nu := math.Atan2(math.Sqrt(1-ecc*ecc)*sinE, cosE-ecc)

	// Perifocal coordinates.
	xp := r * math.Cos(nu)
	yp := r * math.Sin(nu)

	// Rotate perifocal → ECI by ω (argument of perigee), i, Ω (RAAN).
	w := geo.Radians(e.ArgPerigeeDeg)
	inc := geo.Radians(e.InclinationDeg)
	raan := geo.Radians(e.RAANDeg)
	cw, sw := math.Cos(w), math.Sin(w)
	ci, si := math.Cos(inc), math.Sin(inc)
	co, so := math.Cos(raan), math.Sin(raan)

	// Combined rotation matrix rows applied to (xp, yp, 0).
	x := (co*cw-so*sw*ci)*xp + (-co*sw-so*cw*ci)*yp
	y := (so*cw+co*sw*ci)*xp + (-so*sw+co*cw*ci)*yp
	z := (sw*si)*xp + (cw*si)*yp
	return geo.Vec3{X: x, Y: y, Z: z}
}

// PositionECEF returns the Earth-fixed position at t seconds after epoch,
// accounting for Earth's sidereal rotation. Ground stations and coverage
// footprints live in this frame.
func (e Elements) PositionECEF(t float64) geo.Vec3 {
	p := e.PositionECI(t)
	// Rotate by -θ where θ = ωE·t (Greenwich aligned with +X at t=0).
	theta := geo.EarthRotationRadS * t
	c, s := math.Cos(theta), math.Sin(theta)
	return geo.Vec3{
		X: c*p.X + s*p.Y,
		Y: -s*p.X + c*p.Y,
		Z: p.Z,
	}
}

// SubSatellitePoint returns the geodetic point directly beneath the satellite
// at t seconds after epoch.
func (e Elements) SubSatellitePoint(t float64) geo.LatLon {
	return e.PositionECEF(t).LatLon()
}

// ErrNoConvergence is returned by SolveKepler when Newton iteration fails to
// reach tolerance; it cannot occur for eccentricities below ~0.97.
var ErrNoConvergence = errors.New("orbit: Kepler solver did not converge")
