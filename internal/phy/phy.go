// Package phy models the physical layer of OpenSpace links: RF and optical
// (laser) inter-satellite links, and satellite–ground radio links.
//
// The paper (§2.1) mandates that every OpenSpace satellite supports RF ISLs
// in the proven S/UHF bands as the lowest common denominator, with optical
// terminals as an optional upgrade whose throughput is much higher but whose
// cost (~$500k), mass (≥15 kg) and pointing requirements gate small
// spacecraft out. This package encodes those trade-offs quantitatively:
// standard link-budget arithmetic (EIRP, free-space path loss, noise floor)
// feeding a Shannon-capacity estimate, plus the pointing/acquisition/tracking
// (PAT) timing and slew model that governs how quickly a laser link can be
// (re-)established.
//
// Conventions: distances in kilometres, frequencies in hertz, powers in
// watts, gains and losses in decibels, capacities in bits per second.
package phy

import (
	"fmt"
	"math"
	"time"
)

// SpeedOfLightKmS is the speed of light in km/s, used for propagation delay.
const SpeedOfLightKmS = 299792.458

// BoltzmannJK is the Boltzmann constant in joules per kelvin.
const BoltzmannJK = 1.380649e-23

// Band identifies a spectrum band used by OpenSpace links.
type Band int

// Bands used by OpenSpace. UHF and S-band are the paper's mandated ISL
// spectra ("tried and tested in various missions"); Ku-band is the ground
// segment band licensed for satellite broadband in the US; Ka is included
// for high-capacity gateway links; Optical is the laser upgrade path.
const (
	BandUHF Band = iota
	BandS
	BandKu
	BandKa
	BandOptical
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case BandUHF:
		return "UHF"
	case BandS:
		return "S-band"
	case BandKu:
		return "Ku-band"
	case BandKa:
		return "Ka-band"
	case BandOptical:
		return "optical"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// CenterFrequencyHz returns the representative carrier frequency of the band.
func (b Band) CenterFrequencyHz() float64 {
	switch b {
	case BandUHF:
		return 435e6 // amateur/smallsat UHF allocation
	case BandS:
		return 2.25e9
	case BandKu:
		return 12e9
	case BandKa:
		return 27.5e9
	case BandOptical:
		return SpeedOfLightKmS * 1e3 / 1550e-9 // 1550 nm telecom wavelength
	default:
		return 0
	}
}

// FreeSpacePathLossDB returns the free-space path loss in dB for a link of
// the given distance and frequency: 20·log10(4πd/λ).
func FreeSpacePathLossDB(distanceKm, freqHz float64) float64 {
	if distanceKm <= 0 || freqHz <= 0 {
		return 0
	}
	dM := distanceKm * 1e3
	lambda := SpeedOfLightKmS * 1e3 / freqHz
	return 20 * math.Log10(4*math.Pi*dM/lambda)
}

// NoisePowerW returns thermal noise power kTB in watts.
func NoisePowerW(noiseTempK, bandwidthHz float64) float64 {
	return BoltzmannJK * noiseTempK * bandwidthHz
}

// DBToLinear converts decibels to a linear power ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to decibels.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// ShannonCapacityBps returns the Shannon channel capacity B·log2(1+SNR) in
// bits/s for a linear SNR. Real modems achieve a fraction of this; Budget
// applies an implementation margin before reporting a data rate.
func ShannonCapacityBps(bandwidthHz, snrLinear float64) float64 {
	if snrLinear <= 0 || bandwidthHz <= 0 {
		return 0
	}
	return bandwidthHz * math.Log2(1+snrLinear)
}

// PropagationDelay returns the one-way propagation delay over distanceKm.
// This is the quantity the paper's Figure 2(b) estimates from path length.
func PropagationDelay(distanceKm float64) time.Duration {
	if distanceKm <= 0 {
		return 0
	}
	return time.Duration(distanceKm / SpeedOfLightKmS * float64(time.Second))
}

// Budget is the outcome of evaluating a link at a particular distance.
type Budget struct {
	DistanceKm  float64
	Band        Band
	EIRPdBW     float64       // transmit power + tx antenna gain
	PathLossDB  float64       // free-space + excess losses
	RxPowerDBW  float64       // received signal power
	NoiseDBW    float64       // thermal noise floor
	SNRdB       float64       // RxPower - Noise
	CapacityBps float64       // achievable data rate after margin
	Delay       time.Duration // one-way propagation delay
	Closed      bool          // true when SNR clears the required threshold
}

// String implements fmt.Stringer.
func (b Budget) String() string {
	state := "open"
	if b.Closed {
		state = "closed"
	}
	return fmt.Sprintf("budget{%s %.0f km: SNR %.1f dB, %.1f Mbps, %s}",
		b.Band, b.DistanceKm, b.SNRdB, b.CapacityBps/1e6, state)
}
