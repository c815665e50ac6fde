package topo

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// iridiumSpecs converts the Iridium constellation into SatSpecs owned by
// nProviders round-robin.
func iridiumSpecs(t *testing.T, nProviders int, laser bool) []SatSpec {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = SatSpec{
			ID:       s.ID,
			Provider: providerName(i % nProviders),
			Elements: s.Elements,
			HasLaser: laser,
		}
	}
	return specs
}

func providerName(i int) string { return string(rune('A' + i)) }

func TestKindStrings(t *testing.T) {
	if KindSatellite.String() != "satellite" || KindGroundStation.String() != "ground-station" ||
		KindUser.String() != "user" || NodeKind(9).String() == "" {
		t.Error("NodeKind strings wrong")
	}
	if LinkISLRF.String() != "isl-rf" || LinkISLLaser.String() != "isl-laser" ||
		LinkGround.String() != "ground" || LinkAccess.String() != "access" || LinkKind(9).String() == "" {
		t.Error("LinkKind strings wrong")
	}
}

func TestBuildBasicStructure(t *testing.T) {
	sats := iridiumSpecs(t, 1, false)
	grounds := []GroundSpec{{ID: "gs-0", Provider: "A", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []UserSpec{{ID: "u-0", Provider: "A", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	s := Build(0, DefaultConfig(), sats, grounds, users)

	if s.NodeCount() != len(sats)+2 {
		t.Fatalf("node count %d", s.NodeCount())
	}
	if s.Node("gs-0") == nil || s.Node("u-0") == nil || s.Node(sats[0].ID) == nil {
		t.Fatal("missing nodes")
	}
	if s.Node("nope") != nil {
		t.Fatal("phantom node")
	}
	if s.EdgeCount() == 0 {
		t.Fatal("no edges built")
	}
	// Every edge must be symmetric.
	for _, id := range s.Nodes() {
		for _, e := range s.Neighbors(id) {
			from, to := edgeIDs(s, e)
			back, ok := s.Edge(to, from)
			if !ok {
				t.Fatalf("edge %s→%s has no reverse", from, to)
			}
			if back.DistanceKm != e.DistanceKm || back.Kind != e.Kind {
				t.Fatalf("asymmetric edge attributes %s↔%s", from, to)
			}
		}
	}
	// The user and ground station must each see at least one satellite
	// (Iridium provides global coverage).
	if len(s.Neighbors("u-0")) == 0 {
		t.Error("user sees no satellites")
	}
	if len(s.Neighbors("gs-0")) == 0 {
		t.Error("ground station sees no satellites")
	}
	// Users and ground stations never connect to each other directly.
	for _, e := range s.Neighbors("u-0") {
		if to := s.NodeAt(e.To); to.Kind != KindSatellite {
			t.Errorf("user linked to non-satellite %s", to.ID)
		}
		if e.Kind != LinkAccess {
			t.Errorf("user link kind %v", e.Kind)
		}
	}
	for _, e := range s.Neighbors("gs-0") {
		if e.Kind != LinkGround {
			t.Errorf("ground link kind %v", e.Kind)
		}
	}
}

func TestISLRangeAndLineOfSight(t *testing.T) {
	s := Build(0, DefaultConfig(), iridiumSpecs(t, 1, false), nil, nil)
	cfg := DefaultConfig()
	for _, id := range s.Nodes() {
		for _, e := range s.Neighbors(id) {
			if e.Kind != LinkISLRF {
				continue
			}
			a, b := s.NodeAt(e.From), s.NodeAt(e.To)
			if e.DistanceKm > cfg.ISLRangeKm {
				t.Fatalf("ISL %s→%s length %v exceeds range %v", a.ID, b.ID, e.DistanceKm, cfg.ISLRangeKm)
			}
			if !geo.LineOfSight(a.Pos, b.Pos) {
				t.Fatalf("ISL %s→%s lacks line of sight", a.ID, b.ID)
			}
			if e.DelayS <= 0 || e.CapacityBps <= 0 {
				t.Fatalf("ISL %s→%s missing delay/capacity", a.ID, b.ID)
			}
		}
	}
}

func TestLaserPreferredWhenBothCapable(t *testing.T) {
	sats := iridiumSpecs(t, 1, true)
	s := Build(0, DefaultConfig(), sats, nil, nil)
	laser, rf := 0, 0
	for _, id := range s.Nodes() {
		for _, e := range s.Neighbors(id) {
			switch e.Kind {
			case LinkISLLaser:
				laser++
			case LinkISLRF:
				rf++
			}
		}
	}
	if laser == 0 {
		t.Fatal("no laser ISLs despite universal capability")
	}
	if rf != 0 {
		t.Errorf("found %d RF ISLs among laser-capable in-range satellites", rf)
	}
	// Mixed fleet: only laser-laser pairs upgrade.
	mixed := iridiumSpecs(t, 1, false)
	for i := range mixed {
		mixed[i].HasLaser = i%2 == 0
	}
	s = Build(0, DefaultConfig(), mixed, nil, nil)
	for _, id := range s.Nodes() {
		for _, e := range s.Neighbors(id) {
			if e.Kind == LinkISLLaser {
				if !s.NodeAt(e.From).HasLaser || !s.NodeAt(e.To).HasLaser {
					t.Fatal("laser ISL with a non-laser endpoint")
				}
			}
		}
	}
}

func TestMaxISLsRespected(t *testing.T) {
	sats := iridiumSpecs(t, 1, false)
	for i := range sats {
		sats[i].MaxISLs = 3
	}
	s := Build(0, DefaultConfig(), sats, nil, nil)
	for _, id := range s.Nodes() {
		isls := 0
		for _, e := range s.Neighbors(id) {
			if e.Kind == LinkISLRF || e.Kind == LinkISLLaser {
				isls++
			}
		}
		if isls > 3 {
			t.Fatalf("satellite %s has %d ISLs, cap is 3", id, isls)
		}
	}
}

func TestCrossOwnerFlag(t *testing.T) {
	sats := iridiumSpecs(t, 3, false)
	grounds := []GroundSpec{{ID: "gs-0", Provider: "Z", Pos: geo.LatLon{Lat: 0, Lon: 0}}}
	s := Build(0, DefaultConfig(), sats, grounds, nil)
	sawCross, sawSame := false, false
	for _, id := range s.Nodes() {
		for _, e := range s.Neighbors(id) {
			a, b := s.NodeAt(e.From), s.NodeAt(e.To)
			if e.CrossOwner != (a.Provider != b.Provider) {
				t.Fatalf("edge %s→%s cross-owner flag wrong", a.ID, b.ID)
			}
			if e.CrossOwner {
				sawCross = true
			} else {
				sawSame = true
			}
		}
	}
	if !sawCross || !sawSame {
		t.Error("expected a mix of same- and cross-owner edges")
	}
}

func TestBuildDeterministic(t *testing.T) {
	sats := iridiumSpecs(t, 2, true)
	grounds := []GroundSpec{{ID: "gs", Provider: "A", Pos: geo.LatLon{Lat: 10, Lon: 10}}}
	a := Build(100, DefaultConfig(), sats, grounds, nil)
	b := Build(100, DefaultConfig(), sats, grounds, nil)
	if a.EdgeCount() != b.EdgeCount() || a.NodeCount() != b.NodeCount() {
		t.Fatal("builds differ in size")
	}
	for _, id := range a.Nodes() {
		ea, eb := a.Neighbors(id), b.Neighbors(id)
		if len(ea) != len(eb) {
			t.Fatalf("node %s adjacency differs", id)
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("node %s edge %d differs: %+v vs %+v", id, i, ea[i], eb[i])
			}
		}
	}
}

func TestTimeExpanded(t *testing.T) {
	sats := iridiumSpecs(t, 1, false)[:12]
	te, err := BuildTimeExpanded(0, 600, 60, DefaultConfig(), sats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(te.Snaps) != 11 {
		t.Fatalf("snapshot count %d, want 11", len(te.Snaps))
	}
	if end := te.Snaps[len(te.Snaps)-1].TimeS; end != 600 {
		t.Errorf("last snapshot at %v, want 600", end)
	}
	// At() selects the right snapshot and clamps.
	if te.At(-5) != te.Snaps[0] {
		t.Error("At before start should clamp to first")
	}
	if te.At(0) != te.Snaps[0] || te.At(59.9) != te.Snaps[0] {
		t.Error("At within first interval wrong")
	}
	if te.At(60) != te.Snaps[1] || te.At(125) != te.Snaps[2] {
		t.Error("At mid-series wrong")
	}
	if te.At(1e9) != te.Snaps[10] {
		t.Error("At past end should clamp to last")
	}
	// Topology actually changes over time (satellites move).
	if te.Snaps[0].EdgeCount() == 0 {
		t.Fatal("empty snapshot")
	}
	var empty TimeExpanded
	if empty.At(0) != nil {
		t.Error("empty series At should be nil")
	}
}

// TestTimeExpandedRejectsBadSpans requires every span that does not give
// a countable series to fail with a topo error naming both the horizon
// and the interval, and an infinite interval to give the one snapshot at
// the start.
func TestTimeExpandedRejectsBadSpans(t *testing.T) {
	sats := iridiumSpecs(t, 1, false)[:6]
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct{ horizonS, intervalS float64 }{
		{100, 0}, {100, -10}, {600, nan}, {600, -inf},
		{nan, 60}, {-1, 10}, {inf, 60}, {inf, inf},
		{1e30, 60}, {600, 1e-300},
	} {
		_, err := BuildTimeExpanded(0, c.horizonS, c.intervalS, DefaultConfig(), sats, nil, nil)
		if err == nil {
			t.Errorf("horizon %g, interval %g: no error", c.horizonS, c.intervalS)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "topo: ") ||
			!strings.Contains(msg, fmt.Sprintf("horizon %g s", c.horizonS)) ||
			!strings.Contains(msg, fmt.Sprintf("interval %g s", c.intervalS)) {
			t.Errorf("horizon %g, interval %g: error %q does not name the span", c.horizonS, c.intervalS, msg)
		}
	}
	te, err := BuildTimeExpanded(30, 600, inf, DefaultConfig(), sats, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(te.Snaps) != 1 || te.Snaps[0].TimeS != 30 {
		t.Fatalf("infinite interval: %d snapshots, want 1 at t=30", len(te.Snaps))
	}
}

func TestSnapshotTopologyEvolves(t *testing.T) {
	// Over ten minutes, some ISLs must appear or disappear — the "rapidly
	// changing network topology" the paper's routing must handle.
	sats := iridiumSpecs(t, 1, false)
	s0 := Build(0, DefaultConfig(), sats, nil, nil)
	s600 := Build(600, DefaultConfig(), sats, nil, nil)
	diff := 0
	for _, id := range s0.Nodes() {
		for _, e := range s0.Neighbors(id) {
			if _, ok := s600.Edge(edgeIDs(s0, e)); !ok {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("topology identical after 600 s; expected churn")
	}
}
