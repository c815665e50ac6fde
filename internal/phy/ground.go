package phy

import "math"

// Atmosphere models the excess loss a satellite–ground radio link suffers on
// top of free-space loss. ISLs in vacuum have none; ground links see gas
// absorption and rain scaling with the air mass along the slant path — the
// reason the paper notes that ground up/downlink bands "may differ due to
// factors such as atmospheric attenuation" (§2.1).
type Atmosphere struct {
	ZenithLossDB float64 // clear-sky loss straight up
	RainMarginDB float64 // additional budgeted rain fade at zenith
}

// ClearSky returns a benign atmosphere for the given band; attenuation grows
// with frequency, which is what pushes ground links toward Ku rather than Ka
// in rainy regions.
func ClearSky(b Band) Atmosphere {
	switch b {
	case BandUHF:
		return Atmosphere{ZenithLossDB: 0.1}
	case BandS:
		return Atmosphere{ZenithLossDB: 0.2}
	case BandKu:
		return Atmosphere{ZenithLossDB: 0.5, RainMarginDB: 3}
	case BandKa:
		return Atmosphere{ZenithLossDB: 1.0, RainMarginDB: 8}
	default:
		return Atmosphere{}
	}
}

// LossDB returns the slant-path loss at elevationDeg. Gaseous absorption
// scales with the cosecant air-mass model, clamped at low elevations where
// the flat-atmosphere approximation diverges (a 5° floor corresponds to ~11
// air masses); the rain margin is a fixed budgeted fade, as link budgets
// conventionally allocate it.
func (a Atmosphere) LossDB(elevationDeg float64) float64 {
	if elevationDeg < 5 {
		elevationDeg = 5
	}
	airMass := 1 / math.Sin(elevationDeg*math.Pi/180)
	return a.ZenithLossDB*airMass + a.RainMarginDB
}

// GroundLink couples a space-side and a ground-side RF terminal through an
// atmosphere. The space terminal transmits on the downlink and receives on
// the uplink; the budget below evaluates the downlink direction, normally
// the binding constraint for user traffic.
type GroundLink struct {
	Space      RFTerminal
	Ground     RFTerminal
	Atmosphere Atmosphere
}

// Budget evaluates the downlink at the given slant range and elevation.
// The composite link uses the space terminal's transmitter and the ground
// terminal's receiver.
func (g GroundLink) Budget(slantRangeKm, elevationDeg float64) Budget {
	composite := g.Space
	composite.RxGainDBi = g.Ground.RxGainDBi
	composite.NoiseTempK = g.Ground.NoiseTempK
	// The tighter of the two channel bandwidths governs.
	if g.Ground.BandwidthHz < composite.BandwidthHz {
		composite.BandwidthHz = g.Ground.BandwidthHz
	}
	return composite.Budget(slantRangeKm, g.Atmosphere.LossDB(elevationDeg))
}

// DefaultGroundLink returns the standard OpenSpace Ku-band gateway link:
// a satellite Ku transmitter against a gateway dish through clear sky.
func DefaultGroundLink() GroundLink {
	space := GroundKu()
	space.Name = "openspace-sat-ku"
	space.TxGainDBi = 30 // phased array on the satellite
	space.RxGainDBi = 30
	return GroundLink{
		Space:      space,
		Ground:     GroundKu(),
		Atmosphere: ClearSky(BandKu),
	}
}
