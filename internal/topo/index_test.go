package topo

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// edgeIDs returns the IDs of e's endpoints in s, the snapshot e came from.
func edgeIDs(s *Snapshot, e Edge) (from, to string) {
	return s.NodeAt(e.From).ID, s.NodeAt(e.To).ID
}

// at returns the position of the node named id in nodes, for building
// NewSnapshot's edges by name.
func at(nodes []Node, id string) int32 {
	return int32(slices.IndexFunc(nodes, func(n Node) bool { return n.ID == id }))
}

// checkSnapshot verifies the invariants of a snapshot's CSR form: node IDs
// sorted and unique, offsets monotone and covering every edge, each row
// sorted by strictly increasing target so the edges run in (From, To)
// order, each edge's From its row and its To equal to To, the accessors
// agreeing with the rows, and Node and Lookup round-tripping every ID.
func checkSnapshot(t *testing.T, s *Snapshot) {
	t.Helper()
	ix := s.Index()
	n := len(ix.Nodes)
	for i := 1; i < n; i++ {
		if ix.Nodes[i-1].ID >= ix.Nodes[i].ID {
			t.Fatalf("node IDs not sorted and unique at %d: %q, %q", i, ix.Nodes[i-1].ID, ix.Nodes[i].ID)
		}
	}
	if len(ix.Off) != n+1 || ix.Off[0] != 0 || int(ix.Off[n]) != len(ix.Edges) ||
		len(ix.To) != len(ix.Edges) || s.EdgeCount() != len(ix.Edges) || s.NodeCount() != n {
		t.Fatalf("CSR shape: %d nodes, %d offsets ending at %d, %d targets, %d edges, EdgeCount %d",
			n, len(ix.Off), ix.Off[len(ix.Off)-1], len(ix.To), len(ix.Edges), s.EdgeCount())
	}
	ids := s.Nodes()
	for i := range ix.Nodes {
		id := ix.Nodes[i].ID
		if ids[i] != id {
			t.Fatalf("Nodes()[%d] = %q, want %q", i, ids[i], id)
		}
		if s.NodeAt(int32(i)) != &ix.Nodes[i] {
			t.Fatalf("NodeAt(%d) is not node %d", i, i)
		}
		if ix.Off[i] > ix.Off[i+1] {
			t.Fatalf("%s: offsets decrease: %d > %d", id, ix.Off[i], ix.Off[i+1])
		}
		for j := ix.Off[i]; j < ix.Off[i+1]; j++ {
			e := ix.Edges[j]
			if int(e.From) != i || e.To != ix.To[j] {
				t.Fatalf("edge %d %d→%d sits in row %d with target %d", j, e.From, e.To, i, ix.To[j])
			}
			from, to := edgeIDs(s, e)
			if got := ix.Arc(from, to); got != j {
				t.Fatalf("Arc(%s, %s) = %d, want %d", from, to, got, j)
			}
			if j > ix.Off[i] && ix.To[j-1] >= ix.To[j] {
				t.Fatalf("%s: row not in strictly increasing target order at edge %d", id, j)
			}
		}
		if nb := s.Neighbors(id); !slices.Equal(nb, ix.Edges[ix.Off[i]:ix.Off[i+1]]) {
			t.Fatalf("%s: Neighbors %v, CSR row %v", id, nb, ix.Edges[ix.Off[i]:ix.Off[i+1]])
		}
		if j, ok := ix.Lookup(id); !ok || int(j) != i {
			t.Fatalf("Lookup(%s) = %d, %v; want %d", id, j, ok, i)
		}
		if s.Node(id) != &ix.Nodes[i] {
			t.Fatalf("Node(%s) is not node %d", id, i)
		}
	}
	if !slices.Equal(s.Edges(), ix.Edges) {
		t.Fatal("Edges() differs from the CSR edge list")
	}
	if j, ok := ix.Lookup("no-such-node"); ok || j != -1 || s.Node("no-such-node") != nil || s.Neighbors("no-such-node") != nil {
		t.Fatalf("lookups of a missing node: Lookup = %d, %v", j, ok)
	}
}

// TestEdgeLayout holds Edge to 40 bytes with no pointer-bearing field
// anywhere inside it, so edge lists stay out of the garbage collector's
// scan and their copies run without write barriers.
func TestEdgeLayout(t *testing.T) {
	if size := unsafe.Sizeof(Edge{}); size != 40 {
		t.Errorf("Edge is %d bytes, want 40", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("Edge field %s is a %s, which holds a pointer", path, typ.Kind())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Edge", reflect.TypeOf(Edge{}))
}

// TestNewSnapshotRejects checks NewSnapshot's input errors: an endpoint
// outside the nodes given, a self-loop and a duplicate directed edge.
func TestNewSnapshotRejects(t *testing.T) {
	nodes := []Node{{ID: "b"}, {ID: "a"}}
	for _, c := range []struct {
		name  string
		edges []Edge
	}{
		{"negative position", []Edge{{From: -1, To: 0}}},
		{"position past the end", []Edge{{From: 0, To: 2}}},
		{"self-loop", []Edge{{From: 1, To: 1}}},
		{"duplicate", []Edge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 0, To: 1}}},
	} {
		if _, err := NewSnapshot(0, nodes, c.edges); err == nil {
			t.Errorf("%s: NewSnapshot accepted %v", c.name, c.edges)
		}
	}
	s, err := NewSnapshot(0, nodes, []Edge{{From: 0, To: 1, DelayS: 2}})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, s)
	if e, ok := s.Edge("b", "a"); !ok || e.DelayS != 2 || e.From != 1 || e.To != 0 {
		t.Fatalf("Edge(b, a) = %+v, %v; want the edge given, renumbered to sorted positions 1→0", e, ok)
	}
}

// TestIndexOverlayBuildsItsOwn checks that a degraded view never shares
// the index of the snapshot it was derived from, while an empty mask
// returns the same snapshot and so the same index.
func TestIndexOverlayBuildsItsOwn(t *testing.T) {
	s := lineSnapshot(t)
	parent := s.Index()
	o := s.Overlay(fakeMask{nodes: map[string]bool{"b": true}})
	ix := o.Index()
	if ix == parent {
		t.Fatal("overlay shares its parent's index")
	}
	checkSnapshot(t, o)
	if _, ok := ix.Lookup("b"); ok {
		t.Fatal("failed node b is in the overlay's index")
	}
	if j := ix.Arc("a", "b"); j != -1 {
		t.Fatalf("overlay Arc(a, b) = %d through failed node b, want -1", j)
	}
	checkSnapshot(t, s)
	for _, c := range []struct {
		from, to string
		want     int32
	}{
		{"a", "b", 0},             // present: a's only edge
		{"c", "b", 3},             // present: c's first edge, after b's two
		{"a", "c", -1},            // absent pair of known nodes
		{"a", "a", -1},            // no self-loop
		{"no-such-node", "b", -1}, // unknown from
		{"b", "no-such-node", -1}, // unknown to
	} {
		if j := parent.Arc(c.from, c.to); j != c.want {
			t.Errorf("Arc(%s, %s) = %d, want %d", c.from, c.to, j, c.want)
		}
	}
	if s.Overlay(fakeMask{}).Index() != parent {
		t.Fatal("empty overlay should keep the snapshot's index")
	}
}
