package routing

import (
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// disjointSnapshot builds an Iridium snapshot with a 0° elevation mask so
// terminals see several satellites — disjointness is limited by the mesh,
// not by a single access link.
func disjointSnapshot(t *testing.T) *topo.Snapshot {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	cfg := topo.DefaultConfig()
	cfg.MinElevationDeg = 0
	return topo.Build(0, cfg, sats,
		[]topo.GroundSpec{{ID: "gs-seattle", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}},
		[]topo.UserSpec{{ID: "u-nairobi", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}})
}

func TestDisjointPathsAreDisjoint(t *testing.T) {
	s := disjointSnapshot(t)
	paths, err := DisjointPaths(s, "u-nairobi", "gs-seattle", LatencyCost(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("dense Iridium mesh should offer ≥2 disjoint paths, got %d", len(paths))
	}
	// No undirected edge appears in two paths.
	used := map[[2]string]int{}
	for pi, p := range paths {
		for i := 0; i+1 < len(p.Nodes); i++ {
			a, b := p.Nodes[i], p.Nodes[i+1]
			if a > b {
				a, b = b, a
			}
			key := [2]string{a, b}
			if prev, ok := used[key]; ok {
				t.Fatalf("edge %v shared by paths %d and %d", key, prev, pi)
			}
			used[key] = pi
		}
	}
	// Ordered by cost.
	for i := 1; i < len(paths); i++ {
		if paths[i].Cost < paths[i-1].Cost {
			t.Errorf("paths out of order: %v then %v", paths[i-1].Cost, paths[i].Cost)
		}
	}
	// First is the global optimum.
	best, err := ShortestPath(s, "u-nairobi", "gs-seattle", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if paths[0].Cost != best.Cost {
		t.Errorf("first disjoint path cost %v != optimum %v", paths[0].Cost, best.Cost)
	}
}

func TestDisjointPathsDegenerate(t *testing.T) {
	s := disjointSnapshot(t)
	if ps, err := DisjointPaths(s, "u-nairobi", "gs-seattle", HopCost(), 0); err != nil || ps != nil {
		t.Errorf("k=0: %v, %v", ps, err)
	}
	if _, err := DisjointPaths(s, "ghost", "gs-seattle", HopCost(), 2); err == nil {
		t.Error("unknown source should error")
	}
	// Asking for far more paths than exist returns what exists.
	paths, err := DisjointPaths(s, "u-nairobi", "gs-seattle", HopCost(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 || len(paths) >= 100 {
		t.Errorf("paths = %d", len(paths))
	}
}

func TestSplitAcrossDisjointBeatsBottleneck(t *testing.T) {
	// The paper's load-balancing dividend: splitting across disjoint paths
	// carries more than any single path's bottleneck.
	s := disjointSnapshot(t)
	paths, err := DisjointPaths(s, "u-nairobi", "gs-seattle", LatencyCost(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Skip("geometry yields a single path")
	}
	var placed float64
	for _, p := range paths {
		placed += p.MinCapacityBps
	}
	if placed <= paths[0].MinCapacityBps {
		t.Errorf("split placed %v, no better than single bottleneck %v",
			placed, paths[0].MinCapacityBps)
	}
}
