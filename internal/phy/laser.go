package phy

import "math"

// LaserTerminal describes an optical inter-satellite link terminal. The
// paper's reference numbers (§2.1, citing the Tesat ConLCT80) are a cost of
// about $500,000, at least 15 kg of mass and 0.0234 m³ of volume — "infeasible
// specifications for smaller spacecraft", which is why OpenSpace treats laser
// links as an optional capability layered over the mandatory RF baseline.
type LaserTerminal struct {
	Name             string
	TxPowerW         float64 // optical output power
	ApertureM        float64 // telescope aperture diameter
	WavelengthM      float64
	RxSensitivityDBW float64 // receiver sensitivity at the required BER
	DataRateBps      float64 // rated throughput when the link closes
	PointingLossDB   float64
	MassKg           float64
	VolumeM3         float64
	PowerDrawW       float64
	CostUSD          float64
}

// antennaGainDB returns the diffraction-limited telescope gain (πD/λ)².
func (t LaserTerminal) antennaGainDB() float64 {
	g := math.Pi * t.ApertureM / t.WavelengthM
	return LinearToDB(g * g)
}

// Budget evaluates the optical link at distanceKm. Optical ISLs operate in
// vacuum, so there is no excess-loss term; the gate is received power versus
// receiver sensitivity rather than thermal SNR.
func (t LaserTerminal) Budget(distanceKm float64) Budget {
	freq := SpeedOfLightKmS * 1e3 / t.WavelengthM
	gain := t.antennaGainDB()
	eirp := LinearToDB(t.TxPowerW) + gain
	pl := FreeSpacePathLossDB(distanceKm, freq) + t.PointingLossDB
	rx := eirp - pl + gain // same telescope both ends
	margin := rx - t.RxSensitivityDBW
	closed := margin >= 0
	capBps := t.DataRateBps
	if !closed {
		capBps = 0
	}
	return Budget{
		DistanceKm:  distanceKm,
		Band:        BandOptical,
		EIRPdBW:     eirp,
		PathLossDB:  pl,
		RxPowerDBW:  rx,
		NoiseDBW:    t.RxSensitivityDBW,
		SNRdB:       margin,
		CapacityBps: capBps,
		Delay:       PropagationDelay(distanceKm),
		Closed:      closed,
	}
}

// MaxRangeKm returns the longest distance at which the optical link closes,
// searched by bisection up to limitKm.
func (t LaserTerminal) MaxRangeKm(limitKm float64) float64 {
	if !t.Budget(1).Closed {
		return 0
	}
	if t.Budget(limitKm).Closed {
		return limitKm
	}
	lo, hi := 1.0, limitKm
	for hi-lo > 0.1 {
		mid := (lo + hi) / 2
		if t.Budget(mid).Closed {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// EnergyPerBitJ returns the DC energy per delivered bit. Compare with
// RFTerminal.EnergyPerBitJ: lasers deliver orders of magnitude more bits per
// joule, the quantitative form of the paper's "higher throughput than RF,
// with lower energy cost".
func (t LaserTerminal) EnergyPerBitJ(distanceKm float64) float64 {
	b := t.Budget(distanceKm)
	if b.CapacityBps == 0 {
		return math.Inf(1)
	}
	return t.PowerDrawW / b.CapacityBps
}

// ConLCT80 returns a laser terminal with the paper's published reference
// specifications: $500k, 15 kg, 0.0234 m³, multi-Gbps class.
func ConLCT80() LaserTerminal {
	return LaserTerminal{
		Name:             "conlct80",
		TxPowerW:         2,
		ApertureM:        0.08,
		WavelengthM:      1550e-9,
		RxSensitivityDBW: -72, // ≈ -42 dBm, coherent receiver at multi-Gbps
		DataRateBps:      1.8e9,
		PointingLossDB:   3,
		MassKg:           15,
		VolumeM3:         0.0234,
		PowerDrawW:       80,
		CostUSD:          500_000,
	}
}
