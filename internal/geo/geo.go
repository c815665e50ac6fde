// Package geo provides the Earth model used throughout OpenSpace: geodetic
// coordinates, Earth-centred Cartesian vectors, great-circle geometry and
// spherical caps (satellite coverage footprints).
//
// OpenSpace uses a spherical Earth of radius EarthRadiusKm. The paper's
// evaluation (HotNets '24, §4) estimates latency from path length and
// coverage from footprint geometry; for both, the sub-0.5 % error of a
// spherical model relative to WGS-84 is far below the modelling noise of the
// constellation itself, and a sphere keeps every routine closed-form.
//
// All angles at API boundaries are degrees (matching how constellations are
// specified in the literature); internal computation is in radians.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius in kilometres (IUGG mean radius R1).
const EarthRadiusKm = 6371.0

// EarthSurfaceAreaKm2 is the surface area of the spherical Earth model.
const EarthSurfaceAreaKm2 = 4 * math.Pi * EarthRadiusKm * EarthRadiusKm

// EarthMuKm3S2 is the standard gravitational parameter of Earth in km^3/s^2,
// used by the orbit package for two-body propagation.
const EarthMuKm3S2 = 398600.4418

// EarthRotationRadS is Earth's sidereal rotation rate in radians per second.
const EarthRotationRadS = 7.2921159e-5

// LatLon is a geodetic position on the spherical Earth, in degrees.
// Latitude is positive north, longitude positive east.
type LatLon struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, [-180, 180]
}

// String implements fmt.Stringer.
func (p LatLon) String() string {
	ns, ew := "N", "E"
	lat, lon := p.Lat, p.Lon
	if lat < 0 {
		ns, lat = "S", -lat
	}
	if lon < 0 {
		ew, lon = "W", -lon
	}
	return fmt.Sprintf("%.4f°%s %.4f°%s", lat, ns, lon, ew)
}

// Valid reports whether p is a well-formed geodetic coordinate.
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Normalize returns p with the longitude wrapped into [-180, 180] and the
// latitude clamped into [-90, 90].
func (p LatLon) Normalize() LatLon {
	lon := math.Mod(p.Lon, 360)
	if lon > 180 {
		lon -= 360
	} else if lon < -180 {
		lon += 360
	}
	lat := math.Max(-90, math.Min(90, p.Lat))
	return LatLon{Lat: lat, Lon: lon}
}

// Radians returns latitude and longitude in radians.
func (p LatLon) Radians() (lat, lon float64) {
	return p.Lat * math.Pi / 180, p.Lon * math.Pi / 180
}

// Degrees converts an angle in radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts an angle in degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// CentralAngle returns the central angle in radians between two points on the
// sphere, computed with the haversine formula (numerically stable for small
// separations, unlike the spherical law of cosines).
func CentralAngle(a, b LatLon) float64 {
	la, lo := a.Radians()
	lb, lp := b.Radians()
	sinLat := math.Sin((lb - la) / 2)
	sinLon := math.Sin((lp - lo) / 2)
	h := sinLat*sinLat + math.Cos(la)*math.Cos(lb)*sinLon*sinLon
	return 2 * math.Asin(math.Min(1, math.Sqrt(h)))
}

// SurfaceDistanceKm returns the great-circle distance between two surface
// points in kilometres.
func SurfaceDistanceKm(a, b LatLon) float64 {
	return EarthRadiusKm * CentralAngle(a, b)
}

// Destination returns the point reached by travelling distKm kilometres from
// p along the given initial bearing (degrees clockwise from north).
func Destination(p LatLon, bearingDeg, distKm float64) LatLon {
	lat, lon := p.Radians()
	brg := Radians(bearingDeg)
	d := distKm / EarthRadiusKm
	sinLat := math.Sin(lat)*math.Cos(d) + math.Cos(lat)*math.Sin(d)*math.Cos(brg)
	lat2 := math.Asin(sinLat)
	y := math.Sin(brg) * math.Sin(d) * math.Cos(lat)
	x := math.Cos(d) - math.Sin(lat)*sinLat
	lon2 := lon + math.Atan2(y, x)
	return LatLon{Lat: Degrees(lat2), Lon: Degrees(lon2)}.Normalize()
}

// unit returns the Earth-centred unit vector of p, the direction LatLon.Vec3
// points in.
func (p LatLon) unit() Vec3 {
	lat, lon := p.Radians()
	sinLat, cosLat := math.Sincos(lat)
	sinLon, cosLon := math.Sincos(lon)
	return Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat}
}

// Vec3 returns the Earth-centred, Earth-fixed Cartesian position of the point
// at altitudeKm above the surface, in kilometres. The frame has +X through
// (0°N, 0°E), +Y through (0°N, 90°E) and +Z through the north pole.
func (p LatLon) Vec3(altitudeKm float64) Vec3 {
	lat, lon := p.Radians()
	r := EarthRadiusKm + altitudeKm
	cl := math.Cos(lat)
	return Vec3{
		X: r * cl * math.Cos(lon),
		Y: r * cl * math.Sin(lon),
		Z: r * math.Sin(lat),
	}
}
