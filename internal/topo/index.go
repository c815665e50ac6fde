package topo

import (
	"slices"
	"strings"
)

// Index is a snapshot's graph in compressed sparse row (CSR) form, the one
// representation a snapshot stores. Nodes are sorted by ID, so a node's
// position, its dense index, orders the same way as its ID. Node i's
// outgoing edges are Edges[Off[i]:Off[i+1]], sorted by target. An edge's
// From and To are positions in Nodes, so Edges[j].From is the row j sits
// in and Edges[j].To == To[j]; Edges therefore lists every directed edge
// in (From, To) order. Graph kernels read the fields directly and must
// not modify them.
type Index struct {
	Nodes []Node  // sorted by ID
	Off   []int32 // len(Nodes)+1 row offsets into To and Edges
	To    []int32 // position of each edge's target
	Edges []Edge  // every directed edge, in (From, To) order
}

// Index returns the snapshot's CSR form. It is built with the snapshot,
// so it is safe for concurrent readers; an overlay is a snapshot of its
// own with its own index.
func (s *Snapshot) Index() *Index { return &s.ix }

// Lookup returns the dense index of id, or -1 and false when the snapshot
// has no such node.
func (ix *Index) Lookup(id string) (int32, bool) {
	i, ok := slices.BinarySearchFunc(ix.Nodes, id, func(n Node, id string) int { return strings.Compare(n.ID, id) })
	if !ok {
		return -1, false
	}
	return int32(i), true
}

// Arc returns the position in Edges of the edge from → to, or -1 when the
// snapshot has no such edge. Per-link state kept beside a snapshot is
// indexed by this position.
func (ix *Index) Arc(from, to string) int32 {
	u, okFrom := ix.Lookup(from)
	v, okTo := ix.Lookup(to)
	if !okFrom || !okTo {
		return -1
	}
	if k, ok := slices.BinarySearch(ix.To[ix.Off[u]:ix.Off[u+1]], v); ok {
		return ix.Off[u] + int32(k)
	}
	return -1
}

// byID orders nodes by ID, the order of a snapshot's node list.
func byID(x, y Node) int { return strings.Compare(x.ID, y.ID) }

// assembler sorts a snapshot's directed edges into CSR form. Callers add
// each edge as an arc between the sorted positions of its endpoints and
// supply the edge values only at assembly, so each value is written once,
// straight into place. Build and NewSnapshot construct snapshots through
// it, and the builder keeps one as scratch; Overlay needs no sort, since
// it filters a CSR that is already in order.
type assembler struct {
	from  []int32 //lint:scratch — source position of each arc
	to    []int32 //lint:scratch — target position of each arc
	order []int32 //lint:scratch — arcs sorted by target
	next  []int32 //lint:scratch — per-node fill cursor of the counting sorts
}

// add collects an arc from the node at position u to the one at v.
func (a *assembler) add(u, v int32) {
	a.from = append(a.from, u)
	a.to = append(a.to, v)
}

// snapshot returns the collected arcs over nodes, which must be sorted by
// unique ID, as the snapshot at time t, with edge(k) the value of arc k
// but for its endpoints, which are arc k's, and empties the assembler.
// Arcs are put in (From, To) order by two stable counting sorts, by
// target and then by source, so the order depends only on the endpoint
// positions, never on the order arcs were added in, as long as no
// (From, To) pair was added twice.
func (a *assembler) snapshot(t float64, nodes []Node, edge func(k int32) Edge) *Snapshot {
	n, m := len(nodes), len(a.from)
	a.order = slices.Grow(a.order[:0], m)[:m]
	a.next = slices.Grow(a.next[:0], n+1)[:n+1]
	rowStarts(a.next, a.to)
	for k, v := range a.to {
		a.order[a.next[v]] = int32(k)
		a.next[v]++
	}
	ix := Index{Nodes: nodes, Off: make([]int32, n+1), To: make([]int32, m), Edges: make([]Edge, m)}
	rowStarts(ix.Off, a.from)
	copy(a.next, ix.Off)
	for _, k := range a.order {
		u := a.from[k]
		p := a.next[u]
		a.next[u]++
		e := edge(k)
		e.From, e.To = u, a.to[k]
		ix.To[p], ix.Edges[p] = e.To, e
	}
	a.from, a.to = a.from[:0], a.to[:0]
	return &Snapshot{TimeS: t, ix: ix}
}

// rowStarts sets each off[i] to the number of keys below i, for off one
// longer than the number of rows: with keys the rows of a list of
// entries, off[i] is where row i starts once the entries are sorted by
// row.
func rowStarts(off, keys []int32) {
	clear(off)
	for _, k := range keys {
		off[k+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}
