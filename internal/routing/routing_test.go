package routing

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// edgeIDs returns the IDs of e's endpoints in s, the snapshot e came from.
func edgeIDs(s *topo.Snapshot, e topo.Edge) (from, to string) {
	return s.NodeAt(e.From).ID, s.NodeAt(e.To).ID
}

// at returns the position of the node named id in nodes, the form in
// which topo.NewSnapshot takes an edge's endpoints.
func at(nodes []topo.Node, id string) int32 {
	return int32(slices.IndexFunc(nodes, func(n topo.Node) bool { return n.ID == id }))
}

// testSnapshot builds an Iridium snapshot with a user in Nairobi and a
// ground station in Seattle, split across nProviders.
func testSnapshot(t *testing.T, nProviders int, laser bool) *topo.Snapshot {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{
			ID:       s.ID,
			Provider: string(rune('A' + i%nProviders)),
			Elements: s.Elements,
			HasLaser: laser,
		}
	}
	grounds := []topo.GroundSpec{{ID: "gs-seattle", Provider: "A", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u-nairobi", Provider: "A", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	return topo.Build(0, topo.DefaultConfig(), sats, grounds, users)
}

func TestShortestPathBasic(t *testing.T) {
	s := testSnapshot(t, 1, false)
	p, err := ShortestPath(s, "u-nairobi", "gs-seattle", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[0] != "u-nairobi" || p.Nodes[len(p.Nodes)-1] != "gs-seattle" {
		t.Fatalf("endpoints wrong: %v", p.Nodes)
	}
	if p.Hops != len(p.Nodes)-1 {
		t.Errorf("hops %d for %d nodes", p.Hops, len(p.Nodes))
	}
	// Nairobi–Seattle surface distance is ~14800 km; the space path must be
	// at least that, and the latency must match distance/c.
	if p.DistanceKm < 13000 || p.DistanceKm > 25000 {
		t.Errorf("path distance %v km implausible", p.DistanceKm)
	}
	wantDelay := p.DistanceKm / 299792.458
	if math.Abs(p.DelayS-wantDelay) > 1e-9 {
		t.Errorf("delay %v, want %v", p.DelayS, wantDelay)
	}
	// Latency cost with no hop charge equals total delay.
	if math.Abs(p.Cost-p.DelayS) > 1e-12 {
		t.Errorf("cost %v != delay %v", p.Cost, p.DelayS)
	}
	if p.MinCapacityBps <= 0 {
		t.Error("missing bottleneck capacity")
	}
	// All intermediate nodes are satellites.
	for _, n := range p.Nodes[1 : len(p.Nodes)-1] {
		if s.Node(n).Kind != topo.KindSatellite {
			t.Errorf("intermediate node %s is %v", n, s.Node(n).Kind)
		}
	}
}

func TestShortestPathErrors(t *testing.T) {
	s := testSnapshot(t, 1, false)
	if _, err := ShortestPath(s, "ghost", "gs-seattle", HopCost()); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown src: %v", err)
	}
	if _, err := ShortestPath(s, "u-nairobi", "ghost", HopCost()); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown dst: %v", err)
	}
	// Unreachable: forbid every edge.
	never := func(topo.Edge, *topo.Snapshot) (float64, bool) { return 0, false }
	if _, err := ShortestPath(s, "u-nairobi", "gs-seattle", never); !errors.Is(err, ErrNoPath) {
		t.Errorf("unreachable: %v", err)
	}
}

func TestShortestPathOptimality(t *testing.T) {
	// Dijkstra's result must not exceed the cost of any 2-hop relay
	// alternative through a common neighbour (spot check on hop cost).
	s := testSnapshot(t, 1, false)
	p, err := ShortestPath(s, "u-nairobi", "gs-seattle", HopCost())
	if err != nil {
		t.Fatal(err)
	}
	// Minimum possible is 2 (user→sat→gs) — only if one satellite sees
	// both, which Nairobi→Seattle forbids; so hops must be ≥ 3 and the
	// path must be simple.
	if p.Hops < 3 {
		t.Errorf("implausibly short path: %v", p.Nodes)
	}
	seen := map[string]bool{}
	for _, n := range p.Nodes {
		if seen[n] {
			t.Fatalf("path has loop at %s", n)
		}
		seen[n] = true
	}
}

func TestQoSPolicyFilters(t *testing.T) {
	s := testSnapshot(t, 1, false)
	cfg := topo.DefaultConfig()
	// A floor above RF ISL capacity makes satellite relaying impossible.
	p := QoSPolicy{MinCapacityBps: cfg.RFISLBps * 10, DelayWeight: 1}
	if _, err := ShortestPath(s, "u-nairobi", "gs-seattle", p.Cost()); !errors.Is(err, ErrNoPath) {
		t.Errorf("capacity floor should sever the path: %v", err)
	}
	// With a reachable floor the path returns.
	p.MinCapacityBps = 1
	if _, err := ShortestPath(s, "u-nairobi", "gs-seattle", p.Cost()); err != nil {
		t.Errorf("reachable floor failed: %v", err)
	}
}

func TestCrossOwnerTariffSteersPaths(t *testing.T) {
	// With 3 providers and a punitive tariff, the chosen path should use
	// fewer cross-owner hops than the latency-only path (§3: RF routes are
	// cheaper; providers weigh tariffs in routing).
	s := testSnapshot(t, 3, false)
	base, err := ShortestPath(s, "u-nairobi", "gs-seattle", DefaultQoS().Cost())
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultQoS()
	pol.CrossOwnerTariff = 1e6
	avoid, err := ShortestPath(s, "u-nairobi", "gs-seattle", pol.Cost())
	if err != nil {
		t.Fatal(err)
	}
	if avoid.CrossOwnerHops > base.CrossOwnerHops {
		t.Errorf("tariff did not reduce cross-owner hops: %d → %d",
			base.CrossOwnerHops, avoid.CrossOwnerHops)
	}
}

func TestRFPenaltySteersToLaser(t *testing.T) {
	// Mixed fleet: half the satellites have lasers. With a heavy RF
	// penalty, the path should traverse more laser links.
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, sat := range c.Satellites {
		sats[i] = topo.SatSpec{ID: sat.ID, Provider: "A", Elements: sat.Elements, HasLaser: i%2 == 0}
	}
	users := []topo.UserSpec{{ID: "u", Provider: "A", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	grounds := []topo.GroundSpec{{ID: "g", Provider: "A", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	s := topo.Build(0, topo.DefaultConfig(), sats, grounds, users)

	count := func(p Path) (laser, rf int) {
		for i := 0; i+1 < len(p.Nodes); i++ {
			e, _ := s.Edge(p.Nodes[i], p.Nodes[i+1])
			switch e.Kind {
			case topo.LinkISLLaser:
				laser++
			case topo.LinkISLRF:
				rf++
			}
		}
		return
	}
	plain, err := ShortestPath(s, "u", "g", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	pol := QoSPolicy{DelayWeight: 1, RFPenalty: 100}
	pref, err := ShortestPath(s, "u", "g", pol.Cost())
	if err != nil {
		t.Fatal(err)
	}
	_, plainRF := count(plain)
	_, prefRF := count(pref)
	if prefRF > plainRF {
		t.Errorf("RF penalty increased RF hops: %d → %d", plainRF, prefRF)
	}
}
