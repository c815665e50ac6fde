// Package openspace is the public API of the OpenSpace reference
// implementation — a from-scratch build of the architecture proposed in
// "A Roadmap for the Democratization of Space-Based Communications"
// (HotNets '24): an open, interoperable LEO satellite Internet operated by
// many independent providers rather than one vertically integrated firm.
//
// The package re-exports the stable surface of the internal subsystems:
//
//   - Orbits and constellations (Keplerian propagation, Walker generators,
//     the Iridium-like reference constellation of the paper's Figure 2a).
//   - Federations (Network): multiple providers with their own satellites,
//     ground stations, authentication servers and traffic ledgers, wired
//     together by the standardized protocols of §2.
//   - End-to-end operations: user association with home-ISP authentication
//     and roaming certificates, routing over heterogeneous multi-owner
//     ISLs, gateway metering, and §3's cross-verifiable accounting.
//   - The experiment harness regenerating every figure of the paper's
//     evaluation (see the Fig2a and Fig2b functions and friends).
//
// Example (the package quickstart) and the Example_* functions in
// example_test.go are runnable, output-checked walkthroughs: a roaming
// delivery, §3's ledgers and settlement, §5(3)'s data residency and §5(6)'s
// secure roaming.
package openspace

import (
	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/economics"
	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/phy"
	"github.com/openspace-project/openspace/internal/regulation"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/security"
	"github.com/openspace-project/openspace/internal/topo"
)

// Geometry.
type (
	// LatLon is a geodetic position in degrees.
	LatLon = geo.LatLon
)

// Federation assembly.
type (
	// NetworkConfig assembles a federation of providers.
	NetworkConfig = core.NetworkConfig
	// Network is an assembled OpenSpace federation.
	Network = core.Network
	// Scenario is a discrete-event workload for RunScenario.
	Scenario = core.Scenario
)

// Physical layer.
type (
	// Band identifies a spectrum band.
	Band = phy.Band
)

// Spectrum bands.
const (
	// BandS is the higher-rate RF ISL band.
	BandS = phy.BandS
	// BandKu is the ground-segment band.
	BandKu = phy.BandKu
	// BandKa is the high-capacity gateway band.
	BandKa = phy.BandKa
)

// Physical-layer reference terminals.
var (
	// StandardUHF is the minimal mandatory RF terminal.
	StandardUHF = phy.StandardUHF
	// StandardSBand is the higher-rate RF ISL terminal.
	StandardSBand = phy.StandardSBand
	// ConLCT80 is the paper's reference laser terminal ($500k, 15 kg).
	ConLCT80 = phy.ConLCT80
)

// Topology and routing (the §2.2 machinery, exposed for custom scenarios).
type (
	// SatSpec feeds one satellite into a topology build.
	SatSpec = topo.SatSpec
	// GroundSpec feeds one ground station into a topology build.
	GroundSpec = topo.GroundSpec
	// UserSpec feeds one user terminal into a topology build.
	UserSpec = topo.UserSpec
)

// Service classes.
const (
	// ClassInteractive is the latency- and bandwidth-sensitive tier.
	ClassInteractive = routing.ClassInteractive
	// ClassBulk is the cost-optimised background tier.
	ClassBulk = routing.ClassBulk
)

// Topology and routing functions.
var (
	// BuildSnapshot constructs the network graph at one instant.
	BuildSnapshot = topo.Build
	// BuildTimeExpanded precomputes a snapshot series over a horizon.
	BuildTimeExpanded = topo.BuildTimeExpanded
	// ShortestPath runs Dijkstra under a cost function.
	ShortestPath = routing.ShortestPath
	// DisjointPaths returns edge-disjoint routes for load balancing and
	// failure independence.
	DisjointPaths = routing.DisjointPaths
	// EarliestArrival computes a store-and-forward route over time
	// (contact-graph routing) for sparse deployments.
	EarliestArrival = routing.EarliestArrival
	// LatencyCost scores edges by propagation delay.
	LatencyCost = routing.LatencyCost
	// HopCost scores every edge 1.
	HopCost = routing.HopCost
)

// Economics.
type (
	// Ledger is a provider's carried-traffic account (§3).
	Ledger = economics.Ledger
	// RateCard holds bilateral carriage prices.
	RateCard = economics.RateCard
	// FleetPlan describes a provider's buildout.
	FleetPlan = economics.FleetPlan
)

// Security (§5(6)): baseline end-to-end encryption and bad-actor cutoff.
type (
	// MisbehaviourReport is a signed accusation between providers.
	MisbehaviourReport = security.Report
)

// Misbehaviour report kinds.
const (
	// ReportLedgerFraud flags failed ledger cross-verification.
	ReportLedgerFraud = security.KindLedgerFraud
	// ReportTrafficDrop flags relayed traffic that never arrived.
	ReportTrafficDrop = security.KindTrafficDrop
)

// Security constructors.
var (
	// NewSecureSession creates one direction of an encrypted session.
	NewSecureSession = security.NewSession
	// NewQuarantineRegistry creates a registry with the given quorum.
	NewQuarantineRegistry = security.NewRegistry
	// ExcludeQuarantined wraps a routing cost to avoid quarantined members.
	ExcludeQuarantined = security.ExcludeQuarantined
)

// Regulation (§5(3)): regions, data residency, spectrum, licensing.
type (
	// RegulatoryPolicy is the rule set a federation operates under.
	RegulatoryPolicy = regulation.Policy
)

// Regulation constructors.
var (
	// DefaultAtlas returns the coarse continental partition.
	DefaultAtlas = regulation.DefaultAtlas
	// ResidencyFilter enforces data-residency at path computation.
	ResidencyFilter = regulation.ResidencyFilter
)

// Incentives (§5(4)).
type (
	// CoverageEconomics monetises availability gains.
	CoverageEconomics = economics.CoverageEconomics
)

// Incentive functions.
var (
	// Incentive computes one provider's membership case.
	Incentive = economics.Incentive
)

// Constructors and helpers re-exported from the subsystems.
var (
	// NewNetwork federates the configured providers.
	NewNetwork = core.NewNetwork
	// Iridium returns the paper's reference Walker Star (66/6, 780 km).
	Iridium = orbit.Iridium
	// CBOReference returns the CBO's 72-satellite reference configuration.
	CBOReference = orbit.CBOReference
	// DefaultTopology returns the standard link feasibility rules.
	DefaultTopology = topo.DefaultConfig
	// DefaultCapex returns the capital cost model with the paper's figures.
	DefaultCapex = economics.DefaultCapex
	// Settle prices a ledger against a rate card.
	Settle = economics.Settle
	// NetBalances folds invoices into per-provider positions.
	NetBalances = economics.NetBalances
	// PeeringCandidates finds symmetric pairs that should peer.
	PeeringCandidates = economics.PeeringCandidates
	// CrossVerify compares two providers' ledgers.
	CrossVerify = economics.CrossVerify
)

// Experiment entry points (the paper's evaluation and the extensions
// indexed in DESIGN.md).
var (
	// Fig2a builds and measures the reference constellation.
	Fig2a = experiments.Fig2a
	// Fig2b sweeps latency vs constellation size.
	Fig2b = experiments.Fig2b
	// DefaultFig2b returns the paper-default sweep configuration.
	DefaultFig2b = experiments.DefaultFig2b
)

// QuickFederation builds a ready-to-use federation: the Iridium reference
// constellation split across n providers (30 % of satellites carry laser
// terminals), one gateway ground station per provider at spread locations,
// and deterministic keys from seed. Providers are named prov-0 … prov-(n-1)
// and their ground stations gs-0 … gs-(n-1).
func QuickFederation(n int, seed int64) (*Network, error) {
	providers, err := core.IridiumFederation(n)
	if err != nil {
		return nil, err
	}
	return NewNetwork(NetworkConfig{Providers: providers, Seed: seed})
}
