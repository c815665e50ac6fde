// Package traffic is the capacity-planning layer of the repository: it puts
// offered load onto the link graph and answers whether a constellation can
// actually *carry* user traffic, the question the paper's §5(1) defers to
// "extensive simulation tools". The evaluation in §4 stops at propagation
// latency and coverage (Fig. 2b/2c); this package is the throughput
// analogue.
//
// The pipeline has three stages, each usable on its own:
//
//   - Demand matrices (demand.go): per-user offered load at world-city
//     populations is aggregated into gateway-pair demands, with gateway
//     eligibility decided by satellite visibility (internal/ground pass
//     schedules).
//   - Capacitated graphs (Network): a topo.Snapshot annotated with
//     per-directed-link capacities, either the snapshot's own or
//     re-derived from the phy link budgets (Shannon capacity for RF,
//     rated data rate for optical ISLs) at each link's actual length.
//     Per-link state here (capacity, carried load, flow) is a slice
//     indexed by the edge's position in the snapshot's Index().Edges.
//   - Flow allocation: a deterministic Dinic max-flow with minimum cut
//     (maxflow.go) bounds what any routing could carry between two
//     gateways; progressive-filling max-min fairness over Yen k-shortest
//     paths (maxmin.go) reports what a fair multi-commodity allocation
//     does carry, per demand and per link.
//
// Everything is deterministic: node and link orders come from sorted
// snapshot iteration, and no function draws randomness, so experiment CSVs
// built on this package are byte-identical at any worker count.
package traffic

import (
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/phy"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// Demand is offered load between two snapshot nodes (normally gateways).
type Demand struct {
	Src, Dst   string
	OfferedBps float64
}

// LinkID identifies a directed link of a snapshot.
type LinkID struct{ From, To string }

// Network couples a topology snapshot with per-directed-link capacities.
// The snapshot supplies connectivity and path computation; the capacities,
// one per edge at its position in the snapshot's Index().Edges, are the
// commodity being allocated. Capacities start as the snapshot's
// Edge.CapacityBps and can be re-derived from physical link budgets with
// Recapacitate.
//
// A Network memoises the widest-of-k route of every pair MaxMinFair has
// routed on it under the default cost, so it may be shared: concurrent
// MaxMinFair and MaxFlow calls on one Network are safe, and each pair is
// routed once for all of them. A shared Network must not be
// recapacitated, and its Snap must not be reassigned.
type Network struct {
	Snap   *topo.Snapshot
	caps   []float64 // by edge position
	routes routeMemo
}

// NewNetwork wraps a snapshot, taking capacities from its edges.
func NewNetwork(s *topo.Snapshot) *Network {
	n := &Network{Snap: s, caps: make([]float64, s.EdgeCount())}
	for j, e := range s.Edges() {
		n.caps[j] = e.CapacityBps
	}
	return n
}

// CapacityBps returns the capacity of the directed link at position j in
// the snapshot's Index().Edges.
func (n *Network) CapacityBps(j int32) float64 { return n.caps[j] }

// maxCapacityBps returns the largest link capacity, used to scale the float
// tolerances of the solvers.
func (n *Network) maxCapacityBps() float64 {
	var max float64
	for _, c := range n.caps {
		if c > max {
			max = c
		}
	}
	return max
}

// eps returns the saturation tolerance for this network's capacity scale.
func (n *Network) eps() float64 {
	e := n.maxCapacityBps() * 1e-9
	if e < 1e-12 {
		e = 1e-12
	}
	return e
}

// CapacityModel re-derives link capacities from the phy layer at each
// link's actual length, replacing the snapshot builder's fixed
// per-link-class constants. RF capacities come from the Shannon limit of
// the terminal's budget at the link distance (phy.ShannonCapacityBps under
// the hood); optical ISLs carry the terminal's rated data rate whenever the
// budget closes.
type CapacityModel struct {
	RF     phy.RFTerminal // RF inter-satellite links
	Laser  phy.LaserTerminal
	Ground phy.GroundLink // gateway up/down, elevation-dependent atmosphere
}

// DefaultCapacityModel returns the standard OpenSpace terminals: S-band RF
// ISLs, ConLCT80-class optical ISLs and the Ku gateway link.
func DefaultCapacityModel() CapacityModel {
	return CapacityModel{
		RF:     phy.StandardSBand(),
		Laser:  phy.ConLCT80(),
		Ground: phy.DefaultGroundLink(),
	}
}

// EdgeCapacityBps evaluates the model for one edge of the snapshot. Access
// (user-terminal) links keep the snapshot's capacity: user hardware is out
// of scope for the gateway-to-gateway capacity question.
func (m CapacityModel) EdgeCapacityBps(e topo.Edge, s *topo.Snapshot) float64 {
	switch e.Kind {
	case topo.LinkISLLaser:
		return m.Laser.Budget(e.DistanceKm).CapacityBps
	case topo.LinkISLRF:
		return m.RF.Budget(e.DistanceKm, 0).CapacityBps
	case topo.LinkGround:
		return m.Ground.Budget(e.DistanceKm, groundElevationDeg(e, s)).CapacityBps
	default:
		return e.CapacityBps
	}
}

// groundElevationDeg returns the elevation of the satellite end of a ground
// link as seen from the ground end, for the atmosphere's air-mass model.
func groundElevationDeg(e topo.Edge, s *topo.Snapshot) float64 {
	from, to := s.NodeAt(e.From), s.NodeAt(e.To)
	gnd, sat := from, to
	if gnd.Kind == topo.KindSatellite {
		gnd, sat = to, from
	}
	return geo.ElevationDeg(gnd.Pos.LatLon(), sat.Pos)
}

// Recapacitate replaces every link capacity with the model's evaluation
// and drops the memoised routes, whose widest-of-k choice read the old
// capacities.
func (n *Network) Recapacitate(m CapacityModel) {
	for j, e := range n.Snap.Edges() {
		n.caps[j] = m.EdgeCapacityBps(e, n.Snap)
	}
	n.routes.reset()
}

// GatewayTransitCost scores paths for gateway-to-gateway flows: pure
// propagation latency, with user access links unusable — user terminals do
// not relay transit traffic.
func GatewayTransitCost() routing.CostFunc {
	return func(e topo.Edge, _ *topo.Snapshot) (float64, bool) {
		if e.Kind == topo.LinkAccess {
			return 0, false
		}
		return e.DelayS, true
	}
}
