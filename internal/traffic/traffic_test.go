package traffic

import (
	"math"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/topo"
)

// edgeAt returns the position of the edge from→to in the network's snapshot,
// failing the test when there is none.
func edgeAt(t *testing.T, n *Network, from, to string) int32 {
	t.Helper()
	j := n.Snap.Index().Arc(from, to)
	if j < 0 {
		t.Fatalf("no edge %s→%s", from, to)
	}
	return j
}

func TestNetworkCapacities(t *testing.T) {
	n := NewNetwork(grid(t,
		[3]interface{}{"a", "b", 10}, [3]interface{}{"b", "c", 20},
	))
	if got := n.CapacityBps(edgeAt(t, n, "a", "b")); got != 10 {
		t.Errorf("a→b capacity = %v, want 10", got)
	}
	id := func(i int32) string { return n.Snap.NodeAt(i).ID }
	if es := n.Snap.Edges(); len(es) != 2 || id(es[0].From) != "a" || id(es[0].To) != "b" || id(es[1].From) != "b" || id(es[1].To) != "c" {
		t.Errorf("links = %v, want sorted [a→b b→c]", es)
	}
}

func TestRecapacitatePhy(t *testing.T) {
	// A gateway under a satellite at 780 km, an RF ISL at 2,000 km and a
	// laser ISL at 3,000 km, all tagged with placeholder capacities the
	// model must replace.
	gwPos := geo.LatLon{Lat: 10, Lon: 20}
	satPos := gwPos.Vec3(780)
	sat2 := geo.LatLon{Lat: 10, Lon: 38}.Vec3(780)
	sat3 := geo.LatLon{Lat: 10, Lon: 47}.Vec3(780)
	s, err := topo.NewSnapshot(0, []topo.Node{
		{ID: "gw", Kind: topo.KindGroundStation, Pos: gwPos.Vec3(0)},
		{ID: "s1", Kind: topo.KindSatellite, Pos: satPos},
		{ID: "s2", Kind: topo.KindSatellite, Pos: sat2},
		{ID: "s3", Kind: topo.KindSatellite, Pos: sat3},
	}, []topo.Edge{
		{From: 0, To: 1, Kind: topo.LinkGround, DistanceKm: 780, DelayS: 0.003, CapacityBps: 1},                     // gw→s1
		{From: 1, To: 2, Kind: topo.LinkISLRF, DistanceKm: satPos.DistanceKm(sat2), DelayS: 0.007, CapacityBps: 1},  // s1→s2
		{From: 2, To: 3, Kind: topo.LinkISLLaser, DistanceKm: sat2.DistanceKm(sat3), DelayS: 0.003, CapacityBps: 1}, // s2→s3
	})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(s)
	m := DefaultCapacityModel()
	n.Recapacitate(m)

	if got, want := n.CapacityBps(edgeAt(t, n, "s2", "s3")), m.Laser.DataRateBps; got != want {
		t.Errorf("laser ISL capacity = %v, want rated %v", got, want)
	}
	wantRF := m.RF.Budget(satPos.DistanceKm(sat2), 0).CapacityBps
	if got := n.CapacityBps(edgeAt(t, n, "s1", "s2")); math.Abs(got-wantRF) > 1 {
		t.Errorf("RF ISL capacity = %v, want Shannon %v", got, wantRF)
	}
	if wantRF <= 0 {
		t.Fatal("RF budget failed to close at ISL range")
	}
	// The overhead gateway link sees ~90° elevation: near-minimal
	// atmosphere, so the capacity should beat the same link at the 10°
	// mask's slant range.
	overhead := n.CapacityBps(edgeAt(t, n, "gw", "s1"))
	lowElev := m.Ground.Budget(geo.SlantRangeKm(780, 10), 10).CapacityBps
	if overhead <= lowElev {
		t.Errorf("overhead gateway capacity %v not above low-elevation %v", overhead, lowElev)
	}
	// Shannon at the actual distance, not the builder's constant.
	if overhead == 1 {
		t.Error("recapacitate left the placeholder capacity in place")
	}
}

func TestGatewayTransitCost(t *testing.T) {
	cost := GatewayTransitCost()
	if _, ok := cost(topo.Edge{Kind: topo.LinkAccess, DelayS: 0.001}, nil); ok {
		t.Error("access links must be unusable for transit")
	}
	c, ok := cost(topo.Edge{Kind: topo.LinkISLLaser, DelayS: 0.004}, nil)
	if !ok || c != 0.004 {
		t.Errorf("laser ISL cost = %v/%v, want 0.004/usable", c, ok)
	}
}
