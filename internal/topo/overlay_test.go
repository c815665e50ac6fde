package topo

import "testing"

// fakeMask is a test mask over explicit sets.
type fakeMask struct {
	nodes map[string]bool
	edges map[[2]string]bool
}

func (m fakeMask) NodeDown(id string) bool { return m.nodes[id] }
func (m fakeMask) EdgeDown(a, b string) bool {
	if a > b {
		a, b = b, a
	}
	return m.edges[[2]string{a, b}]
}
func (m fakeMask) Empty() bool { return len(m.nodes) == 0 && len(m.edges) == 0 }

// lineSnapshot builds a→b→c→d with symmetric edges.
func lineSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	nodes := []Node{
		{ID: "a", Kind: KindUser}, {ID: "b", Kind: KindSatellite},
		{ID: "c", Kind: KindSatellite}, {ID: "d", Kind: KindGroundStation},
	}
	var edges []Edge
	for _, p := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		edges = append(edges,
			Edge{From: p[0], To: p[1], Kind: LinkISLRF, CapacityBps: 1e6},
			Edge{From: p[1], To: p[0], Kind: LinkISLRF, CapacityBps: 1e6})
	}
	s, err := NewSnapshot(5, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOverlayEmptyMaskIsIdentity(t *testing.T) {
	s := lineSnapshot(t)
	if got := s.Overlay(nil); got != s {
		t.Error("nil mask should return the snapshot itself")
	}
	if got := s.Overlay(fakeMask{}); got != s {
		t.Error("empty mask should return the snapshot itself")
	}
}

func TestOverlayNodeRemoval(t *testing.T) {
	s := lineSnapshot(t)
	d := s.Overlay(fakeMask{nodes: map[string]bool{"c": true}})
	if d == s {
		t.Fatal("non-empty mask must produce a new view")
	}
	if d.Node("c") != nil {
		t.Error("masked node still visible")
	}
	if d.NodeCount() != 3 {
		t.Errorf("NodeCount = %d, want 3", d.NodeCount())
	}
	// c's incident edges are gone in both directions: a↔b survives only.
	if d.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", d.EdgeCount())
	}
	if _, ok := d.Edge("b", "c"); ok {
		t.Error("edge into masked node survived")
	}
	if _, ok := d.Edge("a", "b"); !ok {
		t.Error("untouched edge lost")
	}
	// The original is untouched.
	if s.NodeCount() != 4 || s.EdgeCount() != 6 {
		t.Error("overlay mutated the original snapshot")
	}
	// Surviving nodes keep their values.
	if *d.Node("a") != *s.Node("a") {
		t.Error("overlay changed a surviving node")
	}
	checkSnapshot(t, d)
	if d.TimeS != s.TimeS {
		t.Error("overlay changed the snapshot time")
	}
}

func TestOverlayEdgeRemovalIsUndirected(t *testing.T) {
	s := lineSnapshot(t)
	d := s.Overlay(fakeMask{edges: map[[2]string]bool{{"b", "c"}: true}})
	if _, ok := d.Edge("b", "c"); ok {
		t.Error("masked edge survived forward")
	}
	if _, ok := d.Edge("c", "b"); ok {
		t.Error("masked edge survived reverse")
	}
	if d.EdgeCount() != 4 {
		t.Errorf("EdgeCount = %d, want 4", d.EdgeCount())
	}
	if d.NodeCount() != 4 {
		t.Errorf("NodeCount = %d, want all 4 nodes", d.NodeCount())
	}
	if len(d.Neighbors("a")) != 1 {
		t.Errorf("a's neighbours = %d, want 1", len(d.Neighbors("a")))
	}
	checkSnapshot(t, d)
}

func TestOverlayStacks(t *testing.T) {
	s := lineSnapshot(t)
	d1 := s.Overlay(fakeMask{edges: map[[2]string]bool{{"a", "b"}: true}})
	d2 := d1.Overlay(fakeMask{nodes: map[string]bool{"d": true}})
	if d2.EdgeCount() != 2 || d2.NodeCount() != 3 {
		t.Errorf("stacked overlay: %d nodes / %d edges, want 3 / 2",
			d2.NodeCount(), d2.EdgeCount())
	}
	checkSnapshot(t, d2)
}
