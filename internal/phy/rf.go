package phy

import "math"

// RFTerminal describes a radio terminal used for ISLs or ground links.
// The paper mandates RF as the minimum hardware requirement for joining
// OpenSpace (§2.1): every satellite must carry at least one of these.
type RFTerminal struct {
	Name           string
	Band           Band
	TxPowerW       float64 // RF output power
	TxGainDBi      float64 // transmit antenna gain
	RxGainDBi      float64 // receive antenna gain
	NoiseTempK     float64 // receive system noise temperature
	BandwidthHz    float64 // channel bandwidth
	RequiredSNRdB  float64 // minimum SNR to close the link
	ImplMarginDB   float64 // implementation loss subtracted from Shannon
	PointingLossDB float64 // mispointing allowance
	MassKg         float64
	PowerDrawW     float64 // DC draw while transmitting
	CostUSD        float64
	OmniBroadcast  bool // true if the antenna can broadcast beacons
}

// Budget evaluates the RF link budget at distanceKm, with extraLossDB of
// excess loss (atmosphere for ground links; zero for ISLs in vacuum).
func (t RFTerminal) Budget(distanceKm, extraLossDB float64) Budget {
	freq := t.Band.CenterFrequencyHz()
	eirp := LinearToDB(t.TxPowerW) + t.TxGainDBi
	pl := FreeSpacePathLossDB(distanceKm, freq) + extraLossDB + t.PointingLossDB
	rx := eirp - pl + t.RxGainDBi
	noise := LinearToDB(NoisePowerW(t.NoiseTempK, t.BandwidthHz))
	snr := rx - noise
	cap := ShannonCapacityBps(t.BandwidthHz, DBToLinear(snr-t.ImplMarginDB))
	closed := snr >= t.RequiredSNRdB
	if !closed {
		cap = 0
	}
	return Budget{
		DistanceKm:  distanceKm,
		Band:        t.Band,
		EIRPdBW:     eirp,
		PathLossDB:  pl,
		RxPowerDBW:  rx,
		NoiseDBW:    noise,
		SNRdB:       snr,
		CapacityBps: cap,
		Delay:       PropagationDelay(distanceKm),
		Closed:      closed,
	}
}

// MaxRangeKm returns the longest distance at which the link still closes
// (SNR ≥ required), found by bisection up to limitKm. Returns 0 if the link
// does not close even at point blank range.
func (t RFTerminal) MaxRangeKm(extraLossDB, limitKm float64) float64 {
	if !t.Budget(1, extraLossDB).Closed {
		return 0
	}
	if t.Budget(limitKm, extraLossDB).Closed {
		return limitKm
	}
	lo, hi := 1.0, limitKm
	for hi-lo > 0.1 {
		mid := (lo + hi) / 2
		if t.Budget(mid, extraLossDB).Closed {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// EnergyPerBitJ returns the DC energy cost per delivered bit at distanceKm —
// the figure of merit behind the paper's observation that laser links have
// "higher throughput than RF, with lower energy cost".
func (t RFTerminal) EnergyPerBitJ(distanceKm float64) float64 {
	b := t.Budget(distanceKm, 0)
	if b.CapacityBps == 0 {
		return math.Inf(1)
	}
	return t.PowerDrawW / b.CapacityBps
}

// StandardUHF returns the baseline UHF ISL terminal that constitutes the
// paper's minimal hardware requirement: cheap, light, omnidirectional
// (suitable for beacon broadcast and pairing), but narrowband.
func StandardUHF() RFTerminal {
	return RFTerminal{
		Name:           "openspace-uhf-1",
		Band:           BandUHF,
		TxPowerW:       4,
		TxGainDBi:      2, // near-omni
		RxGainDBi:      2,
		NoiseTempK:     600,
		BandwidthHz:    100e3,
		RequiredSNRdB:  6,
		ImplMarginDB:   3,
		PointingLossDB: 0.5,
		MassKg:         0.8,
		PowerDrawW:     12,
		CostUSD:        15_000,
		OmniBroadcast:  true,
	}
}

// StandardSBand returns the S-band ISL terminal: the higher-rate RF option
// the paper notes has been flown on many smallsat missions. Directional,
// so it cannot broadcast beacons.
func StandardSBand() RFTerminal {
	return RFTerminal{
		Name:           "openspace-s-1",
		Band:           BandS,
		TxPowerW:       10,
		TxGainDBi:      18,
		RxGainDBi:      18,
		NoiseTempK:     450,
		BandwidthHz:    5e6,
		RequiredSNRdB:  6,
		ImplMarginDB:   3,
		PointingLossDB: 1,
		MassKg:         2.5,
		PowerDrawW:     30,
		CostUSD:        60_000,
	}
}

// GroundKu returns the Ku-band satellite–ground terminal modelled on the
// bands existing satellite broadband providers use (§2.1, Starlink downlink
// reference). Ground stations have large apertures, hence the high RX gain.
func GroundKu() RFTerminal {
	return RFTerminal{
		Name:           "openspace-gnd-ku",
		Band:           BandKu,
		TxPowerW:       20,
		TxGainDBi:      33,
		RxGainDBi:      38,
		NoiseTempK:     300,
		BandwidthHz:    250e6,
		RequiredSNRdB:  4,
		ImplMarginDB:   3,
		PointingLossDB: 1,
		MassKg:         5,
		PowerDrawW:     80,
		CostUSD:        120_000,
	}
}
