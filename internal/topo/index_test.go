package topo

import (
	"slices"
	"testing"
)

// checkSnapshot verifies the invariants of a snapshot's CSR form: node IDs
// sorted and unique, offsets monotone and covering every edge, each row
// sorted by strictly increasing target so the edges run in (From, To)
// order, To naming each edge's target, the accessors agreeing with the
// rows, and Node and Lookup round-tripping every ID.
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
		if ix.Off[i] > ix.Off[i+1] {
			t.Fatalf("%s: offsets decrease: %d > %d", id, ix.Off[i], ix.Off[i+1])
		}
		for j := ix.Off[i]; j < ix.Off[i+1]; j++ {
			e := ix.Edges[j]
			if e.From != id || ix.Nodes[ix.To[j]].ID != e.To {
				t.Fatalf("edge %d %s→%s sits in row %s with target %s", j, e.From, e.To, id, ix.Nodes[ix.To[j]].ID)
			}
			if got := ix.Arc(e.From, e.To); got != j {
				t.Fatalf("Arc(%s, %s) = %d, want %d", e.From, e.To, got, j)
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
