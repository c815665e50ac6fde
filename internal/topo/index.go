package topo

import "sort"

// Index is a dense, read-only view of a snapshot for graph kernels. Node
// IDs are interned to int32 positions in sorted ID order, so comparing two
// positions compares the IDs they name. Adjacency is in compressed sparse
// row (CSR) form: node i's outgoing edges occupy positions Off[i] to
// Off[i+1]-1 of To, in Neighbors order, and Adj[i] holds the same edges as
// values. Adj[i] is the snapshot's own adjacency slice, shared rather than
// copied, so edge j of node i is Adj[i][j-Off[i]].
type Index struct {
	IDs []string // node IDs, sorted; a node's position is its dense index
	Off []int32  // len(IDs)+1 CSR offsets into To
	To  []int32  // dense index of each edge's target
	Adj [][]Edge // per-node outgoing edges, shared with the snapshot
}

// Index returns the snapshot's dense index, building it on first use. It
// is safe for concurrent use and every caller gets the same index. An
// overlay is a snapshot of its own and builds its own index.
func (s *Snapshot) Index() *Index {
	s.indexOnce.Do(func() { s.index = newIndex(s) })
	return s.index
}

func newIndex(s *Snapshot) *Index {
	ids := s.Nodes()
	ix := &Index{
		IDs: ids,
		Off: make([]int32, len(ids)+1),
		To:  make([]int32, 0, s.edges),
		Adj: make([][]Edge, len(ids)),
	}
	for i, id := range ids {
		es := s.adj[id]
		ix.Adj[i] = es
		for _, e := range es {
			j, _ := ix.Lookup(e.To) // every edge target is a node of s
			ix.To = append(ix.To, j)
		}
		ix.Off[i+1] = int32(len(ix.To))
	}
	return ix
}

// Lookup returns the dense index of id, or -1 and false when the snapshot
// has no such node.
func (ix *Index) Lookup(id string) (int32, bool) {
	i := sort.SearchStrings(ix.IDs, id)
	if i < len(ix.IDs) && ix.IDs[i] == id {
		return int32(i), true
	}
	return -1, false
}
