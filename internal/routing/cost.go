// Package routing implements path computation over OpenSpace topology
// snapshots. It provides the two routing regimes the paper describes (§2.2):
//
//   - Proactive routing: because orbits are public and predictable, routes
//     between any satellite pair and fixed ground infrastructure can be
//     computed ahead of time on each topology snapshot (ShortestPath,
//     KShortestPaths and DisjointPaths over the snapshot series).
//   - On-demand, end-to-end routing: as the system scales, path costs depend
//     on quantities that cannot be precomputed — ISL queue occupancy, ground
//     station load, visitor tariffs — so paths must be found at request time
//     with live state (OnDemandRouter).
//
// Both regimes share a cost-function abstraction so that the
// heterogeneity-aware policy (bandwidth floors, cross-provider tariffs,
// laser preference, power budgets) composes with either.
package routing

import (
	"github.com/openspace-project/openspace/internal/topo"
)

// CostFunc scores an edge for path selection. It returns the edge's cost
// (must be ≥ 0) and whether the edge is usable at all. Costs are additive
// along a path. An edge scored negative or NaN is not used. s is the
// snapshot the edge belongs to, whose NodeAt resolves the edge's From and
// To positions.
//
// A CostFunc must be a pure function of the edge for the duration of one
// ShortestPath, KShortestPaths or DisjointPaths call, or for the life of a
// Graph: each scores an edge once, on first use, and reuses that score for
// every search it runs. Live state such as a LoadMap may change between
// calls, not during one.
type CostFunc func(e topo.Edge, s *topo.Snapshot) (cost float64, usable bool)

// LatencyCost scores edges by one-way propagation delay plus a fixed
// per-hop processing delay in seconds. With perHopS = 0 it reproduces the
// paper's Figure 2(b) metric: pure propagation latency along the shortest
// path.
func LatencyCost(perHopS float64) CostFunc {
	return func(e topo.Edge, _ *topo.Snapshot) (float64, bool) {
		return e.DelayS + perHopS, true
	}
}

// HopCost scores every edge 1, yielding minimum-hop paths.
func HopCost() CostFunc {
	return func(topo.Edge, *topo.Snapshot) (float64, bool) { return 1, true }
}

// QoSPolicy parameterises heterogeneity-aware routing (§2.2): OpenSpace
// satellites "need to make quality-of-service-aware routing decisions that
// take into account the nature of the network, including available
// bandwidths of the ISLs", plus the ownership and tariff structure of §3.
type QoSPolicy struct {
	// MinCapacityBps filters out links too slow for the flow's QoS class.
	MinCapacityBps float64
	// DelayWeight scales propagation delay (s) into cost units.
	DelayWeight float64
	// BandwidthWeight adds cost proportional to 1/capacity (per Gbps
	// shortfall), steering traffic toward fat links.
	BandwidthWeight float64
	// CrossOwnerTariff is the fixed cost of handing a packet to another
	// provider's infrastructure — §3's per-hop accounting signal.
	CrossOwnerTariff float64
	// RFPenalty is added to RF ISLs: they are cheaper in §3's cost model
	// precisely because they offer looser QoS, so QoS-sensitive flows pay
	// to avoid them.
	RFPenalty float64
	// LoadPenalty scales with the live utilisation of the edge (0..1),
	// supplied through a LoadMap. Zero disables load awareness, which makes
	// the policy fully precomputable (proactive regime).
	LoadPenalty float64
	// Load optionally supplies live utilisation; nil means unloaded.
	Load LoadMap
}

// LoadMap reports live edge utilisation in [0,1]; the key is directed.
type LoadMap interface {
	Utilization(from, to string) float64
}

// Cost returns the CostFunc implementing the policy.
func (p QoSPolicy) Cost() CostFunc {
	return func(e topo.Edge, s *topo.Snapshot) (float64, bool) {
		if p.MinCapacityBps > 0 && e.CapacityBps < p.MinCapacityBps {
			return 0, false
		}
		c := p.DelayWeight * e.DelayS
		if p.BandwidthWeight > 0 && e.CapacityBps > 0 {
			c += p.BandwidthWeight * 1e9 / e.CapacityBps
		}
		if e.CrossOwner {
			c += p.CrossOwnerTariff
		}
		if e.Kind == topo.LinkISLRF {
			c += p.RFPenalty
		}
		if p.LoadPenalty > 0 && p.Load != nil {
			u := p.Load.Utilization(s.NodeAt(e.From).ID, s.NodeAt(e.To).ID)
			if u >= 1 {
				return 0, false // saturated link
			}
			// M/M/1-style delay inflation: cost grows as 1/(1-ρ).
			c += p.LoadPenalty * u / (1 - u)
		}
		return c, true
	}
}

// DefaultQoS returns a balanced policy: latency-dominated with a mild
// bandwidth preference and a visible cross-provider tariff.
func DefaultQoS() QoSPolicy {
	return QoSPolicy{
		DelayWeight:      1000, // 1 ms of delay ≡ 1 cost unit
		BandwidthWeight:  0.1,
		CrossOwnerTariff: 0.5,
		RFPenalty:        0.2,
		LoadPenalty:      5,
	}
}

// Path is a computed route.
type Path struct {
	Nodes []string
	// Arcs holds the position of each hop's edge in Index().Edges of the
	// snapshot the path was computed on, so per-link state kept by edge
	// position is reached without a lookup. A position means nothing on
	// any other snapshot, a fault overlay of the same snapshot included; a
	// caller that takes the path to another snapshot must go by Nodes.
	Arcs           []int32
	Cost           float64
	DelayS         float64 // total propagation delay
	DistanceKm     float64
	Hops           int
	MinCapacityBps float64 // bottleneck capacity
	CrossOwnerHops int     // §3 accounting: hops carried by other providers
}
