package routing

import (
	"fmt"
	"math"
	"sync"

	"github.com/openspace-project/openspace/internal/topo"
)

// Graph is a routing context: one snapshot under one cost function, the
// working set of Dijkstra over the snapshot's dense index with slice
// scratch instead of string-keyed maps. Edge weights are memoised for the
// context's whole life, so a CostFunc must stay pure until Release; Yen
// calls to one destination share that destination's reverse
// shortest-path tree (tree.go). ShortestPath, KShortestPaths and
// DisjointPaths each run on a one-shot context, a Fan answers one
// source's destinations from one search on one, and traffic.MaxMinFair
// routes a whole fill through one.
//
// Scratch entries are stamped with the epoch that wrote them, so starting
// a search, a call or a context is one counter increment rather than a
// clear, and a pooled Graph can move between snapshots of any size
// without stale state leaking in.
//
// Every tie-break is the map-based implementation's: neighbours are
// relaxed in Neighbors order, only a strict improvement replaces a
// predecessor, and the heap reproduces container/heap's sift order, so
// equal-cost ties settle in the same order (oracle_test.go pins this).
//
// A Graph is not safe for concurrent use.
type Graph struct {
	snap *topo.Snapshot
	ix   *topo.Index
	cost CostFunc

	epoch uint32 // last stamp issued
	bound uint32 // the context's stamp: weight memo
	call  uint32 // this call's stamp: call-wide edge bans
	cur   uint32 // the current search's stamp

	// limit stops a search at its first pop costing strictly more; begin
	// resets it to +Inf and only KShortestPaths lowers it.
	limit float64

	dist    []float64 //lint:scratch — tentative cost, valid where seen == cur
	prev    []int32   //lint:scratch — tree predecessor, valid where seen == cur
	seen    []uint32  //lint:scratch
	done    []uint32  //lint:scratch
	banned  []uint32  //lint:scratch — node excluded from the search stamped here
	edgeBan []uint32  //lint:scratch — edge excluded: call stamp for the call, cur for one search
	wStamp  []uint32  //lint:scratch — memoised weight valid where == bound
	w       []float64 //lint:scratch
	usable  []bool    //lint:scratch
	heap    []entry   //lint:scratch
	path    []int32   //lint:scratch — path of the last route or answered spur

	// The reverse shortest-path tree to treeDst (tree.go) and the
	// transposed index it is searched on, built on first need.
	treeDst    int32     // -1 until a tree is built
	treeWhole  bool      // every node that can reach treeDst has a finite h
	transposed bool      // rOff, rFrom and rArc hold this snapshot's in-edges
	h          []float64 //lint:scratch — cost of v's tree path to treeDst; +Inf if none
	succ       []int32   //lint:scratch — edge position of v's first tree hop; -1 at treeDst or if none
	slack      []float64 //lint:scratch — least extra cost of leaving v's tree path
	order      []int32   //lint:scratch — nodes in the order the tree settled them
	rOff       []int32   //lint:scratch — node v's in-edges are rArc[rOff[v]:rOff[v+1]]
	rFrom      []int32   //lint:scratch — tail of the in-edge at the same position
	rArc       []int32   //lint:scratch — edge position of the in-edge

	// Work counters, zeroed by bind. settles counts the nodes every
	// forward search settled, spurSettles the share of Yen's spur searches
	// (the rest are first searches, ShortestPath's and DisjointPaths'), and
	// treeSettles the reverse trees'. A spur is answered from the tree or
	// declined to the search, and firstAnswered counts Yen's first
	// searches the tree answered. A Yen call whose spurs use the tree
	// builds it, or reuses the one an earlier call built; treesSkipped
	// counts the calls that searched every spur instead because their
	// first path tied.
	settles, spurSettles, treeSettles     uint64
	answered, declined, firstAnswered     uint64
	treesBuilt, treesReused, treesSkipped uint64

	fan Fan // the fan NewFan lends out with this context
}

// entry is a priority-queue element: a node and the cost it was pushed at.
type entry struct {
	node int32
	cost float64
}

var graphs = sync.Pool{New: func() any { return new(Graph) }}

// NewGraph returns a pooled routing context for the snapshot under cost.
// The caller owns it until Release and must not use it afterwards. cost
// must be a pure function of the edge until then.
func NewGraph(s *topo.Snapshot, cost CostFunc) *Graph {
	g := graphs.Get().(*Graph)
	g.bind(s, cost)
	return g
}

// Release drops the context's references and returns it to the pool.
func (g *Graph) Release() {
	g.snap, g.ix, g.cost = nil, nil, nil
	graphs.Put(g)
}

// endpoints resolves src and dst to dense indices, failing as
// ShortestPath does when one is not in the snapshot.
func endpoints(ix *topo.Index, src, dst string) (int32, int32, error) {
	si, ok := ix.Lookup(src)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	di, ok := ix.Lookup(dst)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	return si, di, nil
}

// bind sizes the scratch for the snapshot and opens a new context:
// weights memoised, edges banned and trees built under an earlier stamp
// no longer count.
func (g *Graph) bind(s *topo.Snapshot, cost CostFunc) {
	ix := s.Index()
	g.snap, g.ix, g.cost = s, ix, cost
	n, m := len(ix.Nodes), len(ix.Edges)
	if len(g.dist) < n {
		g.dist = make([]float64, n)
		g.prev = make([]int32, n)
		g.seen = make([]uint32, n)
		g.done = make([]uint32, n)
		g.banned = make([]uint32, n)
	}
	if len(g.w) < m {
		g.edgeBan = make([]uint32, m)
		g.wStamp = make([]uint32, m)
		g.w = make([]float64, m)
		g.usable = make([]bool, m)
	}
	// A context issues one stamp per call and per search it runs, so
	// restarting the count past half range leaves every context about 2³¹.
	if g.epoch > math.MaxUint32/2 {
		for _, st := range [][]uint32{g.seen, g.done, g.banned, g.edgeBan, g.wStamp} {
			clear(st)
		}
		g.epoch = 0
	}
	g.epoch++
	g.bound = g.epoch
	g.treeDst, g.transposed = -1, false
	g.settles, g.spurSettles, g.treeSettles = 0, 0, 0
	g.answered, g.declined, g.firstAnswered = 0, 0, 0
	g.treesBuilt, g.treesReused, g.treesSkipped = 0, 0, 0
}

// begin opens a new call on the context: edges banned for an earlier
// call no longer count, and searches are unbounded.
func (g *Graph) begin() {
	g.epoch++
	g.call = g.epoch
	g.limit = math.Inf(1)
}

// next opens a new search within the call. Node and per-search edge bans
// for it are stamped with g.cur before search runs.
func (g *Graph) next() {
	g.epoch++
	g.cur = g.epoch
}

// reached reports whether the current search settled v, so that the
// tree holds a shortest path to it. A search cut short by its limit may
// have seen v without settling it.
func (g *Graph) reached(v int32) bool { return g.done[v] == g.cur }

// find runs the current search from src, stopping at dst, and reports
// whether dst is reachable; if so the path is left in g.path.
func (g *Graph) find(src, dst int32) bool {
	g.search(src, dst)
	if !g.reached(dst) {
		return false
	}
	g.route(src, dst)
	return true
}

// search runs Dijkstra from src under the context's cost and the current
// search's bans, stopping once stop is settled (stop < 0 settles every
// reachable node) or at the first pop costing more than g.limit. src is
// settled here, as its own pop would settle it, and resume does the rest.
func (g *Graph) search(src, stop int32) {
	g.heap = g.heap[:0]
	g.seen[src], g.dist[src], g.prev[src] = g.cur, 0, -1
	if 0 > g.limit { // src's pop would cost more than the limit
		return
	}
	g.done[src] = g.cur
	g.settles++
	if src != stop {
		g.resume(src, stop)
	}
}

// resume goes on with the current search from u, the node it settled
// last: it relaxes u's out-edges, then pops until stop is settled, the
// heap runs dry or a pop costs more than g.limit. A search stopped at
// stop and resumed there settles the nodes one uninterrupted search
// settles, in the same order and with the same predecessors, as long as
// no pop has cost more than the limit.
//
//lint:hotpath
func (g *Graph) resume(u, stop int32) {
	cur, call := g.cur, g.call
	off, to := g.ix.Off, g.ix.To
	var settled uint64
	du := g.dist[u] // the cost u was popped at
settle:
	for {
		for j := off[u]; j < off[u+1]; j++ {
			v := to[j]
			if g.banned[v] == cur || g.edgeBan[j] == call || g.edgeBan[j] == cur {
				continue
			}
			w, usable := g.weight(j)
			if !usable {
				continue
			}
			nd := du + w
			if g.seen[v] != cur || nd < g.dist[v] {
				g.seen[v], g.dist[v], g.prev[v] = cur, nd, u
				g.push(v, nd)
			}
		}
		for {
			if len(g.heap) == 0 {
				break settle
			}
			it := g.pop()
			if it.cost > g.limit {
				break settle
			}
			if g.done[it.node] != cur {
				u, du = it.node, it.cost
				break
			}
		}
		g.done[u] = cur
		settled++
		if u == stop {
			break
		}
	}
	g.settles += settled
}

// weight returns the memoised cost of edge j, scoring it on first use in
// the context. An edge whose cost is negative or NaN is unusable, so the
// searches and the reverse tree skip the same edges.
func (g *Graph) weight(j int32) (float64, bool) {
	if g.wStamp[j] != g.bound {
		w, usable := g.cost(g.ix.Edges[j], g.snap)
		g.w[j], g.usable[j] = w, usable && w >= 0
		g.wStamp[j] = g.bound
	}
	return g.w[j], g.usable[j]
}

// push is container/heap.Push: append, then sift up.
func (g *Graph) push(v int32, c float64) {
	g.heap = append(g.heap, entry{node: v, cost: c})
	h := g.heap
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop is container/heap.Pop: swap the root to the end, sift the new root
// down over the rest, and remove the end.
func (g *Graph) pop() entry {
	h := g.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].cost < h[j1].cost {
			j = j2 // right child
		}
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	g.heap = h[:n]
	return it
}

// route walks the current search's tree back from dst and leaves the
// path, src first, in g.path.
func (g *Graph) route(src, dst int32) {
	g.path = g.path[:0]
	for at := dst; ; at = g.prev[at] {
		g.path = append(g.path, at)
		if at == src {
			break
		}
	}
	for i, j := 0, len(g.path)-1; i < j; i, j = i+1, j-1 {
		g.path[i], g.path[j] = g.path[j], g.path[i]
	}
}

// edgeTo returns the CSR position of edge u → v, or -1 when there is
// none. A snapshot has at most one edge per ordered pair of nodes.
func (g *Graph) edgeTo(u, v int32) int32 {
	for j := g.ix.Off[u]; j < g.ix.Off[u+1]; j++ {
		if g.ix.To[j] == v {
			return j
		}
	}
	return -1
}

// banEdge stamps edge u → v, if there is one, with st.
func (g *Graph) banEdge(u, v int32, st uint32) {
	if j := g.edgeTo(u, v); j >= 0 {
		g.edgeBan[j] = st
	}
}

// materialize turns a dense node sequence into a Path with the given
// cost: its node IDs, the position of each hop's edge, and statistics read
// from those edges.
func (g *Graph) materialize(nodes []int32, cost float64) Path {
	p := Path{
		Nodes: make([]string, len(nodes)),
		Arcs:  make([]int32, len(nodes)-1),
		Cost:  cost,
		Hops:  len(nodes) - 1,
	}
	for i, v := range nodes {
		p.Nodes[i] = g.ix.Nodes[v].ID
	}
	if p.Hops > 0 {
		p.MinCapacityBps = math.Inf(1)
	}
	for i := range p.Arcs {
		j := g.edgeTo(nodes[i], nodes[i+1])
		p.Arcs[i] = j
		e := &g.ix.Edges[j]
		p.DelayS += e.DelayS
		p.DistanceKm += e.DistanceKm
		if e.CapacityBps < p.MinCapacityBps {
			p.MinCapacityBps = e.CapacityBps
		}
		if e.CrossOwner {
			p.CrossOwnerHops++
		}
	}
	return p
}
