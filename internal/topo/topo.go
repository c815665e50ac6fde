// Package topo builds the time-varying network topology of an OpenSpace
// deployment: graph snapshots whose nodes are satellites, ground stations
// and users, and whose edges are the feasible links at an instant.
//
// The paper's central routing observation (§2.2) is that because orbits are
// public and predictable, "all firms that contribute satellites to OpenSpace
// have a full public view of the topology of the entire network, including
// how it is likely to evolve over time". A TimeExpanded series of snapshots
// is the concrete form of that view: every provider can compute the same
// one from public orbital elements, which is what makes proactive routing
// and the cost model's cross-verifiable accounting possible.
package topo

import (
	"fmt"
	"slices"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/phy"
)

// NodeKind distinguishes the three entity classes of a LEO network (§2):
// ground users, satellites, and ground stations.
type NodeKind int

// Node kinds.
const (
	KindSatellite NodeKind = iota
	KindGroundStation
	KindUser
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindSatellite:
		return "satellite"
	case KindGroundStation:
		return "ground-station"
	case KindUser:
		return "user"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one vertex of a snapshot.
type Node struct {
	ID       string
	Kind     NodeKind
	Provider string   // owning firm; heterogeneity-aware routing uses this
	Pos      geo.Vec3 // ECEF at the snapshot time
	HasLaser bool     // optical ISL capability (satellites only)
}

// LinkKind distinguishes edge classes.
type LinkKind uint8

// Link kinds.
const (
	LinkISLRF LinkKind = iota
	LinkISLLaser
	LinkGround // satellite ↔ ground station
	LinkAccess // satellite ↔ user
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case LinkISLRF:
		return "isl-rf"
	case LinkISLLaser:
		return "isl-laser"
	case LinkGround:
		return "ground"
	case LinkAccess:
		return "access"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Edge is one feasible link at the snapshot time. Edges are stored
// directed (both directions present) so per-direction costs are possible.
// From and To are the positions of the endpoints in the sorted node list
// of the snapshot the edge came from (NodeAt reads them); they name
// nothing in any other snapshot, an overlay of it included. The struct
// holds no pointers, so an edge list is neither scanned by the garbage
// collector nor copied under write barriers.
type Edge struct {
	From, To    int32
	DistanceKm  float64
	DelayS      float64 // one-way propagation delay
	CapacityBps float64
	Kind        LinkKind
	CrossOwner  bool // endpoints belong to different providers
}

// Snapshot is the network graph at one instant, stored once, in the CSR
// form of its Index: Build and NewSnapshot sort their edges into it, and
// Overlay filters it from the parent's. It is immutable once returned,
// which is what lets concurrent readers share it.
type Snapshot struct {
	TimeS float64
	ix    Index
}

// Node returns the node with the given ID, or nil.
func (s *Snapshot) Node(id string) *Node {
	i, ok := s.ix.Lookup(id)
	if !ok {
		return nil
	}
	return &s.ix.Nodes[i]
}

// NodeAt returns the node at position i of the sorted node list, the
// node an Edge's From or To names.
func (s *Snapshot) NodeAt(i int32) *Node { return &s.ix.Nodes[i] }

// Nodes returns all node IDs in deterministic (sorted) order.
func (s *Snapshot) Nodes() []string {
	ids := make([]string, len(s.ix.Nodes))
	for i := range s.ix.Nodes {
		ids[i] = s.ix.Nodes[i].ID
	}
	return ids
}

// Neighbors returns the outgoing edges of id, sorted by target.
func (s *Snapshot) Neighbors(id string) []Edge {
	i, ok := s.ix.Lookup(id)
	if !ok {
		return nil
	}
	return s.ix.Edges[s.ix.Off[i]:s.ix.Off[i+1]:s.ix.Off[i+1]]
}

// Edges returns every directed edge in (From, To) order: the Neighbors
// lists of all nodes in sorted-ID order, concatenated. The slice is the
// snapshot's own and must not be modified.
func (s *Snapshot) Edges() []Edge { return slices.Clip(s.ix.Edges) }

// NodeCount returns the number of nodes.
func (s *Snapshot) NodeCount() int { return len(s.ix.Nodes) }

// EdgeCount returns the number of directed edges.
func (s *Snapshot) EdgeCount() int { return len(s.ix.Edges) }

// Edge returns the edge from → to if present.
func (s *Snapshot) Edge(from, to string) (Edge, bool) {
	if j := s.ix.Arc(from, to); j >= 0 {
		return s.ix.Edges[j], true
	}
	return Edge{}, false
}

// NewSnapshot assembles a snapshot directly from nodes and directed edges,
// bypassing the orbital feasibility rules of Build. It is the synthetic-graph
// entry point: capacity-planning tests and benchmarks use it to construct
// graphs with exactly known capacities. Each edge is taken as given (one
// direction only; callers wanting symmetry add both directions), with its
// From and To the positions of its endpoints in nodes as passed; the
// snapshot renumbers them to its sorted node list. Endpoints must be in
// range and distinct, and duplicate directed edges are rejected so a
// (from, to) pair identifies at most one link.
func NewSnapshot(t float64, nodes []Node, edges []Edge) (*Snapshot, error) {
	for i := range nodes {
		if nodes[i].ID == "" {
			return nil, fmt.Errorf("topo: node %d has empty ID", i)
		}
	}
	ix := Index{Nodes: slices.Clone(nodes)}
	slices.SortFunc(ix.Nodes, byID)
	for i := 1; i < len(ix.Nodes); i++ {
		if ix.Nodes[i].ID == ix.Nodes[i-1].ID {
			return nil, fmt.Errorf("topo: duplicate node %q", ix.Nodes[i].ID)
		}
	}
	rank := make([]int32, len(nodes)) // sorted position of each node as passed
	for i := range nodes {
		rank[i], _ = ix.Lookup(nodes[i].ID)
	}
	var a assembler
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= len(nodes) || e.To < 0 || int(e.To) >= len(nodes) {
			return nil, fmt.Errorf("topo: edge %d→%d references a node outside the %d given", e.From, e.To, len(nodes))
		}
		if e.From == e.To {
			return nil, fmt.Errorf("topo: self-loop on %q", nodes[e.From].ID)
		}
		a.add(rank[e.From], rank[e.To])
	}
	s := a.snapshot(t, ix.Nodes, func(k int32) Edge { return edges[k] })
	for j := 1; j < len(s.ix.To); j++ {
		if e, p := s.ix.Edges[j], s.ix.Edges[j-1]; e.From == p.From && e.To == p.To {
			return nil, fmt.Errorf("topo: duplicate edge %s→%s", s.ix.Nodes[e.From].ID, s.ix.Nodes[e.To].ID)
		}
	}
	return s, nil
}

// SatSpec describes one satellite feeding a snapshot build.
type SatSpec struct {
	ID       string
	Provider string
	Elements orbit.Elements
	HasLaser bool
	MaxISLs  int // power-budget cap on simultaneous ISLs; 0 = unlimited
}

// GroundSpec describes a ground station.
type GroundSpec struct {
	ID       string
	Provider string
	Pos      geo.LatLon
}

// UserSpec describes a ground user terminal.
type UserSpec struct {
	ID       string
	Provider string // home ISP
	Pos      geo.LatLon
}

// Config sets the link-feasibility rules for snapshot building. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// ISLRangeKm caps RF ISL length (power-limited). Laser ISLs use
	// LaserRangeKm. Line of sight over the Earth limb is always required.
	// A range ≤ 0 forms no link of its class, not even between coincident
	// satellites; both ≤ 0 switch ISLs off.
	ISLRangeKm   float64
	LaserRangeKm float64
	// MinElevationDeg is the ground terminal elevation mask for both
	// ground-station and user links.
	MinElevationDeg float64
	// Capacities assigned to built links.
	RFISLBps    float64
	LaserISLBps float64
	GroundBps   float64
	AccessBps   float64
	// Workers bounds the parallel snapshot builders BuildTimeExpanded
	// fans out; ≤0 means one per CPU, 1 forces serial builds. Snapshots
	// are pure functions of their timestamp and are collected in time
	// order, so the series is identical at any worker count.
	Workers int
	// StaticISLs switches inter-satellite wiring from the geometric
	// every-visible-pair rule to an explicit plan — e.g. the +Grid wiring
	// of orbit.WalkerConfig.GridISLs — which is how mega-constellations
	// actually fly and what keeps the link count linear in the fleet.
	// Planned pairs are still feasibility-checked per snapshot (range and
	// line of sight), so seam or polar links that stretch beyond reach
	// drop out of that snapshot; pairs naming unknown satellites are
	// ignored, and MaxISLs degree caps still apply.
	StaticISLs []orbit.ISLPair
}

// DefaultConfig returns feasibility rules derived from the phy package's
// standard terminals: S-band RF ISLs, ConLCT80-class laser ISLs, Ku ground
// links, and a 10° elevation mask.
func DefaultConfig() Config {
	rf := phy.StandardSBand()
	laser := phy.ConLCT80()
	ground := phy.DefaultGroundLink()
	return Config{
		ISLRangeKm:      rf.MaxRangeKm(0, 20000),
		LaserRangeKm:    laser.MaxRangeKm(40000),
		MinElevationDeg: 10,
		RFISLBps:        rf.Budget(2000, 0).CapacityBps,
		LaserISLBps:     laser.DataRateBps,
		GroundBps:       ground.Budget(geo.SlantRangeKm(780, 30), 30).CapacityBps,
		AccessBps:       50e6,
	}
}

// Build constructs the snapshot at time t. Node IDs must be unique across
// sats, grounds and users together: the snapshot stores its nodes sorted
// by ID and finds them by ID.
//
// ISLs: with no explicit plan, every satellite pair with line of sight
// and within range gets a link — laser when both ends carry terminals and
// are within laser range, otherwise RF (the paper's "RF at a minimum,
// optionally laser" rule). When a satellite has a MaxISLs power budget,
// its nearest neighbours are kept — locally optimal for link quality, and
// deterministic. With cfg.StaticISLs set, only the planned pairs are
// considered (mega-constellation +Grid wiring). Ground and access links
// attach by elevation mask.
//
// Candidate pairs come from a spatial index over the ECEF positions
// rather than an all-pairs scan, and every candidate is re-checked
// against the exact feasibility predicates, so the snapshot is identical
// to a brute-force build — the property test in spatial_test.go pins
// this.
func Build(t float64, cfg Config, sats []SatSpec, grounds []GroundSpec, users []UserSpec) *Snapshot {
	b := newBuilder(cfg, sats, grounds, users)
	defer b.release()
	return b.SnapshotAt(t, b.nodes) // one snapshot: the template is its node list
}
