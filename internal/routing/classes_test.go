package routing

import (
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

func TestServiceClassStrings(t *testing.T) {
	for c, want := range map[ServiceClass]string{
		ClassInteractive: "interactive", ClassStandard: "standard", ClassBulk: "bulk",
	} {
		if c.String() != want {
			t.Errorf("%d → %q", c, c.String())
		}
	}
	if ServiceClass(9).String() == "" {
		t.Error("unknown class string")
	}
}

// mixedFleetSnapshot builds an Iridium snapshot where half the satellites
// carry lasers, so the classes have meaningful technology choices.
func mixedFleetSnapshot(t *testing.T) *topo.Snapshot {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{ID: s.ID, Provider: string(rune('A' + i%2)), Elements: s.Elements, HasLaser: i%2 == 0}
	}
	cfg := topo.DefaultConfig()
	cfg.MinElevationDeg = 0
	return topo.Build(0, cfg, sats,
		[]topo.GroundSpec{{ID: "g", Provider: "A", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}}},
		[]topo.UserSpec{{ID: "u", Provider: "A", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}})
}

func TestClassPoliciesDiffer(t *testing.T) {
	s := mixedFleetSnapshot(t)
	paths := map[ServiceClass]Path{}
	for _, c := range []ServiceClass{ClassInteractive, ClassStandard, ClassBulk} {
		p, err := ShortestPath(s, "u", "g", c.Policy().Cost())
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		paths[c] = p
	}
	// Interactive's bandwidth floor guarantees a fat bottleneck.
	if paths[ClassInteractive].MinCapacityBps < ClassInteractive.Policy().MinCapacityBps {
		t.Errorf("interactive bottleneck %v below the class floor %v",
			paths[ClassInteractive].MinCapacityBps, ClassInteractive.Policy().MinCapacityBps)
	}
	// Optimality under one's own metric: each class's path must cost no
	// more (under that class's policy) than any other class's path.
	evalUnder := func(nodes []string, cost CostFunc) (float64, bool) {
		var total float64
		for i := 0; i+1 < len(nodes); i++ {
			e, ok := s.Edge(nodes[i], nodes[i+1])
			if !ok {
				return 0, false
			}
			w, usable := cost(e, s)
			if !usable {
				return 0, false
			}
			total += w
		}
		return total, true
	}
	for _, own := range []ServiceClass{ClassInteractive, ClassStandard, ClassBulk} {
		cost := own.Policy().Cost()
		for _, other := range []ServiceClass{ClassInteractive, ClassStandard, ClassBulk} {
			if other == own {
				continue
			}
			alt, usable := evalUnder(paths[other].Nodes, cost)
			if usable && alt < paths[own].Cost-1e-9 {
				t.Errorf("%v path beaten by %v path under %v's own policy: %v < %v",
					own, other, own, alt, paths[own].Cost)
			}
		}
	}
}

func TestInteractiveFloorCanSeverPath(t *testing.T) {
	// On an RF-only fleet whose ISLs are thinner than the interactive
	// floor, interactive traffic is refused while bulk still flows — the
	// "looser QoS guarantees" plan the paper describes.
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{ID: s.ID, Provider: "A", Elements: s.Elements}
	}
	cfg := topo.DefaultConfig()
	cfg.RFISLBps = 5e6 // below ClassInteractive's 10 Mbps floor
	snap := topo.Build(0, cfg, sats,
		[]topo.GroundSpec{{ID: "g", Provider: "A", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}}},
		[]topo.UserSpec{{ID: "u", Provider: "A", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}})

	if _, err := ShortestPath(snap, "u", "g", ClassInteractive.Policy().Cost()); err == nil {
		t.Error("interactive should be refused on thin RF ISLs")
	}
	if _, err := ShortestPath(snap, "u", "g", ClassBulk.Policy().Cost()); err != nil {
		t.Errorf("bulk should still flow: %v", err)
	}
}
