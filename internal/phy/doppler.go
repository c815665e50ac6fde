package phy

import (
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// DopplerShiftHz returns the carrier frequency shift seen by a receiver
// when the transmitter closes at radialVelocityKmS (positive = approaching,
// which raises the received frequency). LEO passes sweep roughly ±7 km/s
// of radial velocity, i.e. tens of kHz at S-band — the reason the paper
// requires OpenSpace transceivers to "function over a wide range of
// frequencies" (§2.1).
func DopplerShiftHz(freqHz, radialVelocityKmS float64) float64 {
	return freqHz * radialVelocityKmS / SpeedOfLightKmS
}

// RadialVelocityKmS returns the range rate between a ground observer and a
// satellite at time t: negative when the range is opening (satellite
// receding). Computed by central differencing of the slant range, exact
// enough for Doppler planning.
func RadialVelocityKmS(e orbit.Elements, obs geo.LatLon, t float64) float64 {
	const dt = 0.5
	r0 := e.PositionECEF(t - dt).DistanceKm(obs.Vec3(0))
	r1 := e.PositionECEF(t + dt).DistanceKm(obs.Vec3(0))
	// Closing speed is the negative range rate.
	return -(r1 - r0) / (2 * dt)
}
