package geo

import (
	"fmt"
	"math"
)

// Vec3 is a Cartesian vector in kilometres, in the Earth-centred frame
// described by LatLon.Vec3.
type Vec3 struct {
	X, Y, Z float64
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f) km", v.X, v.Y, v.Z)
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v multiplied by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// DistanceKm returns the straight-line (chord) distance between v and w in
// kilometres. This is the slant range used for link budgets and for the
// propagation-latency estimates in the paper's Figure 2(b).
func (v Vec3) DistanceKm(w Vec3) float64 { return v.Sub(w).Norm() }

// AngleBetween returns the angle between v and w in radians, in [0, π].
func (v Vec3) AngleBetween(w Vec3) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	// Clamp to guard against floating-point drift outside [-1, 1].
	c := v.Dot(w) / (nv * nw)
	return math.Acos(math.Max(-1, math.Min(1, c)))
}

// LatLon projects v back onto the surface as a geodetic coordinate,
// discarding altitude.
func (v Vec3) LatLon() LatLon {
	r := v.Norm()
	if r == 0 {
		return LatLon{}
	}
	lat := math.Asin(v.Z / r)
	lon := math.Atan2(v.Y, v.X)
	return LatLon{Lat: Degrees(lat), Lon: Degrees(lon)}
}

// AltitudeKm returns the height of v above the spherical Earth surface.
func (v Vec3) AltitudeKm() float64 { return v.Norm() - EarthRadiusKm }

// LineOfSight reports whether the straight segment between a and b clears the
// Earth (with no atmospheric margin). Both endpoints must be at or above the
// surface. It is the geometric feasibility test for inter-satellite links.
func LineOfSight(a, b Vec3) bool {
	// The segment a→b is blocked iff the closest point of the segment to the
	// Earth's centre lies below the surface.
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return a.Norm() >= EarthRadiusKm
	}
	// Parameter of the closest approach of the infinite line to the origin,
	// clamped to the segment.
	t := -a.Dot(ab) / den
	t = math.Max(0, math.Min(1, t))
	closest := a.Add(ab.Scale(t))
	return closest.Norm() >= EarthRadiusKm
}

// ElevationDeg returns the elevation angle in degrees at which a ground
// observer at obs sees the target position. Positive elevations are above
// the local horizon; a satellite is visible when the elevation exceeds the
// terminal's minimum elevation mask.
func ElevationDeg(obs LatLon, target Vec3) float64 {
	return ElevationDegFrom(obs.Vec3(0), target)
}

// ElevationDegFrom is ElevationDeg for an observer given by its
// Earth-centred surface position o (obs.Vec3(0)), bit for bit. Callers
// that test one observer against many targets compute o once.
func ElevationDegFrom(o, target Vec3) float64 {
	rel := target.Sub(o)
	if rel.Norm() == 0 {
		return 90
	}
	// Elevation is 90° minus the angle between the local zenith (o) and the
	// direction to the target.
	return 90 - Degrees(o.AngleBetween(rel))
}
