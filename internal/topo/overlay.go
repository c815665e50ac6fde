package topo

// Mask hides failed network elements from a snapshot view. Implementations
// report which nodes and links are currently down; EdgeDown must treat the
// link as undirected (a failed laser terminal or flapped ISL kills both
// directions). The fault-injection layer (internal/faults) provides the
// canonical implementation.
type Mask interface {
	// NodeDown reports whether the node is failed.
	NodeDown(id string) bool
	// EdgeDown reports whether the undirected link between from and to is
	// failed.
	EdgeDown(from, to string) bool
	// Empty reports whether nothing is down, enabling the no-op fast path.
	Empty() bool
}

// Overlay returns the degraded view of s under m: masked nodes disappear
// along with their incident edges, and masked links disappear in both
// directions. Geometry is never rebuilt: the overlay is one filtered copy
// of the surviving nodes and edges into a CSR of its own, rather than an
// O(N²) feasibility build.
//
// A nil or empty mask returns s itself: fault injection disabled is a
// provable no-op, which is what lets every fault-free experiment regenerate
// byte-identical output.
func (s *Snapshot) Overlay(m Mask) *Snapshot {
	if m == nil || m.Empty() {
		return s
	}
	ix := &s.ix
	pos := make([]int32, len(ix.Nodes)) // position in the overlay, -1 when down
	nodes := make([]Node, 0, len(ix.Nodes))
	for i := range ix.Nodes {
		pos[i] = -1
		if !m.NodeDown(ix.Nodes[i].ID) {
			pos[i] = int32(len(nodes))
			nodes = append(nodes, ix.Nodes[i])
		}
	}
	var a assembler
	kept := make([]int32, 0, len(ix.Edges)) // the parent edge behind each arc
	for u := range ix.Nodes {
		for j := ix.Off[u]; j < ix.Off[u+1]; j++ {
			e := &ix.Edges[j]
			if pu, pv := pos[u], pos[ix.To[j]]; pu >= 0 && pv >= 0 && !m.EdgeDown(e.From, e.To) {
				a.add(pu, pv)
				kept = append(kept, j)
			}
		}
	}
	return a.snapshot(s.TimeS, nodes, func(k int32) Edge { return ix.Edges[kept[k]] })
}
