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
// directions. Geometry is never rebuilt: the overlay filters the CSR of s
// into one of its own. Survivors keep their relative order, so each kept
// row is still in (From, To) order and is copied straight into place,
// its endpoints renumbered to the survivors' positions.
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
	keep := make([]bool, len(ix.Edges)) // the mask is asked once per edge, and the count sizes the CSR
	kept := 0
	for u := range ix.Nodes {
		for j := ix.Off[u]; j < ix.Off[u+1]; j++ {
			keep[j] = pos[u] >= 0 && pos[ix.To[j]] >= 0 && !m.EdgeDown(ix.Nodes[u].ID, ix.Nodes[ix.To[j]].ID)
			if keep[j] {
				kept++
			}
		}
	}
	out := Index{Nodes: nodes, Off: make([]int32, len(nodes)+1), To: make([]int32, 0, kept), Edges: make([]Edge, 0, kept)}
	for u, pu := range pos {
		for j := ix.Off[u]; j < ix.Off[u+1]; j++ {
			if keep[j] {
				e := ix.Edges[j]
				e.From, e.To = pu, pos[ix.To[j]]
				out.To = append(out.To, e.To)
				out.Edges = append(out.Edges, e)
			}
		}
		if pu >= 0 {
			out.Off[pu+1] = int32(len(out.To))
		}
	}
	return &Snapshot{TimeS: s.TimeS, ix: out}
}
