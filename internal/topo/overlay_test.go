package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/openspace-project/openspace/internal/orbit"
)

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
		u, v := at(nodes, p[0]), at(nodes, p[1])
		edges = append(edges,
			Edge{From: u, To: v, Kind: LinkISLRF, CapacityBps: 1e6},
			Edge{From: v, To: u, Kind: LinkISLRF, CapacityBps: 1e6})
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

// TestOverlayMatchesNewSnapshot holds Overlay to its oracle: NewSnapshot
// over exactly the nodes and edges that survive the mask. It runs random
// masks (a node in 20, an undirected link in 8) over a +Grid N=500
// snapshot with ground stations and users, and over Iridium with laser
// and RF crosslinks.
func TestOverlayMatchesNewSnapshot(t *testing.T) {
	w, err := orbit.SquareWalkerDelta(500, 550, 53)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if cfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		t.Fatal(err)
	}
	var grid []SatSpec
	for i, s := range c.Satellites {
		grid = append(grid, SatSpec{ID: s.ID, Provider: providerName(i % 2), Elements: s.Elements, HasLaser: true})
	}
	var grounds []GroundSpec
	var users []UserSpec
	for i, p := range randomPoints(30, 5) {
		if i%3 == 0 {
			users = append(users, UserSpec{ID: fmt.Sprintf("u%d", i), Provider: providerName(i % 2), Pos: p})
		} else {
			grounds = append(grounds, GroundSpec{ID: fmt.Sprintf("g%d", i), Provider: providerName(i % 2), Pos: p})
		}
	}
	for _, c := range []struct {
		name string
		s    *Snapshot
	}{
		{"grid", Build(300, cfg, grid, grounds, users)},
		{"iridium", Build(300, DefaultConfig(), iridiumSpecs(t, 3, true), grounds, nil)},
	} {
		s := c.s
		for seed := range int64(5) {
			rng := rand.New(rand.NewSource(seed))
			m := fakeMask{nodes: map[string]bool{}, edges: map[[2]string]bool{}}
			for _, id := range s.Nodes() {
				if rng.Intn(20) == 0 {
					m.nodes[id] = true
				}
			}
			for _, e := range s.Edges() {
				if from, to := edgeIDs(s, e); from < to && rng.Intn(8) == 0 {
					m.edges[[2]string{from, to}] = true
				}
			}
			var nodes []Node
			kept := make([]int32, s.NodeCount()) // position in nodes of each survivor
			for i, id := range s.Nodes() {
				if !m.nodes[id] {
					kept[i] = int32(len(nodes))
					nodes = append(nodes, *s.Node(id))
				}
			}
			var edges []Edge
			for _, e := range s.Edges() {
				if from, to := edgeIDs(s, e); !m.nodes[from] && !m.nodes[to] && !m.EdgeDown(from, to) {
					e.From, e.To = kept[e.From], kept[e.To]
					edges = append(edges, e)
				}
			}
			want, err := NewSnapshot(s.TimeS, nodes, edges)
			if err != nil {
				t.Fatal(err)
			}
			got := s.Overlay(m)
			checkSnapshot(t, got)
			label := fmt.Sprintf("%s seed %d", c.name, seed)
			assertSnapshotsEqual(t, label, got, want)
			if !reflect.DeepEqual(got.Index(), want.Index()) {
				t.Fatalf("%s: overlay CSR differs from NewSnapshot's", label)
			}
			if got.EdgeCount() == s.EdgeCount() || got.NodeCount() == s.NodeCount() {
				t.Fatalf("%s: the mask removed no node or no edge", label)
			}
		}
	}
}
