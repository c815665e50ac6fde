package routing

import (
	"fmt"
	"math"
	"sync"

	"github.com/openspace-project/openspace/internal/topo"
)

// searcher is the working set of one ShortestPath, KShortestPaths or
// DisjointPaths call: Dijkstra over the snapshot's dense index with
// slice scratch instead of string-keyed maps. Scratch entries are stamped
// with the epoch that wrote them, so starting a search or a call is one
// counter increment rather than a clear, and a pooled searcher can move
// between snapshots of any size without stale state leaking in.
//
// Every tie-break is the map-based implementation's: neighbours are
// relaxed in Neighbors order, only a strict improvement replaces a
// predecessor, and the heap reproduces container/heap's sift order, so
// equal-cost ties settle in the same order (oracle_test.go pins this).
type searcher struct {
	snap *topo.Snapshot
	ix   *topo.Index
	cost CostFunc

	epoch uint32 // last stamp issued
	call  uint32 // this call's stamp: weight memo and call-wide edge bans
	cur   uint32 // the current search's stamp

	// limit stops a search at its first pop costing strictly more; bind
	// resets it to +Inf and only KShortestPaths lowers it.
	limit float64

	dist    []float64 //lint:scratch — tentative cost, valid where seen == cur
	prev    []int32   //lint:scratch — tree predecessor, valid where seen == cur
	seen    []uint32  //lint:scratch
	done    []uint32  //lint:scratch
	banned  []uint32  //lint:scratch — node excluded from the search stamped here
	edgeBan []uint32  //lint:scratch — edge excluded: call stamp for the call, cur for one search
	wStamp  []uint32  //lint:scratch — memoised weight valid where == call
	w       []float64 //lint:scratch
	usable  []bool    //lint:scratch
	heap    []entry   //lint:scratch
	path    []int32   //lint:scratch — tree path of the last route call
}

// entry is a priority-queue element: a node and the cost it was pushed at.
type entry struct {
	node int32
	cost float64
}

var searchers = sync.Pool{New: func() any { return new(searcher) }}

// acquire returns a pooled searcher bound to the snapshot and cost for one
// call, with src and dst resolved to dense indices. It fails as
// ShortestPath does when an endpoint is not in the snapshot.
func acquire(s *topo.Snapshot, src, dst string, cost CostFunc) (*searcher, int32, int32, error) {
	ix := s.Index()
	si, ok := ix.Lookup(src)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	di, ok := ix.Lookup(dst)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	sr := searchers.Get().(*searcher)
	sr.bind(s, ix, cost)
	return sr, si, di, nil
}

// release drops the call's references and returns sr to the pool.
func (sr *searcher) release() {
	sr.snap, sr.ix, sr.cost = nil, nil, nil
	searchers.Put(sr)
}

// bind sizes the scratch for the snapshot and opens a new call: weights
// memoised and edges banned under an earlier call stamp no longer count.
func (sr *searcher) bind(s *topo.Snapshot, ix *topo.Index, cost CostFunc) {
	sr.snap, sr.ix, sr.cost = s, ix, cost
	n, m := len(ix.Nodes), len(ix.Edges)
	if len(sr.dist) < n {
		sr.dist = make([]float64, n)
		sr.prev = make([]int32, n)
		sr.seen = make([]uint32, n)
		sr.done = make([]uint32, n)
		sr.banned = make([]uint32, n)
	}
	if len(sr.w) < m {
		sr.edgeBan = make([]uint32, m)
		sr.wStamp = make([]uint32, m)
		sr.w = make([]float64, m)
		sr.usable = make([]bool, m)
	}
	// A call issues one stamp per search it runs, so restarting the count
	// past half range leaves every call about 2³¹ searches.
	if sr.epoch > math.MaxUint32/2 {
		for _, st := range [][]uint32{sr.seen, sr.done, sr.banned, sr.edgeBan, sr.wStamp} {
			clear(st)
		}
		sr.epoch = 0
	}
	sr.epoch++
	sr.call = sr.epoch
	sr.limit = math.Inf(1)
}

// next opens a new search within the call. Node and per-search edge bans
// for it are stamped with sr.cur before search runs.
func (sr *searcher) next() {
	sr.epoch++
	sr.cur = sr.epoch
}

// reached reports whether the current search settled v, so that the
// tree holds a shortest path to it. A search cut short by its limit may
// have seen v without settling it.
func (sr *searcher) reached(v int32) bool { return sr.done[v] == sr.cur }

// find runs the current search from src, stopping at dst, and reports
// whether dst is reachable; if so the path is left in sr.path.
func (sr *searcher) find(src, dst int32) bool {
	sr.search(src, dst)
	if !sr.reached(dst) {
		return false
	}
	sr.route(src, dst)
	return true
}

// search runs Dijkstra from src under the call's cost and the current
// search's bans, stopping once stop is settled (stop < 0 settles every
// reachable node) or at the first pop costing more than sr.limit. An
// edge's weight is evaluated on its first relaxation in the call and
// memoised, which is why CostFunc must be pure for the duration of a call.
//
//lint:hotpath
func (sr *searcher) search(src, stop int32) {
	cur, call := sr.cur, sr.call
	off, to := sr.ix.Off, sr.ix.To
	sr.heap = sr.heap[:0]
	sr.seen[src], sr.dist[src], sr.prev[src] = cur, 0, -1
	sr.push(src, 0)
	for len(sr.heap) > 0 {
		it := sr.pop()
		if it.cost > sr.limit {
			break
		}
		u := it.node
		if sr.done[u] == cur {
			continue
		}
		sr.done[u] = cur
		if u == stop {
			break
		}
		for j := off[u]; j < off[u+1]; j++ {
			v := to[j]
			if sr.banned[v] == cur || sr.edgeBan[j] == call || sr.edgeBan[j] == cur {
				continue
			}
			w, usable := sr.weight(j)
			if !usable || w < 0 {
				continue
			}
			nd := it.cost + w
			if sr.seen[v] != cur || nd < sr.dist[v] {
				sr.seen[v], sr.dist[v], sr.prev[v] = cur, nd, u
				sr.push(v, nd)
			}
		}
	}
}

// weight returns the memoised cost of edge j, scoring it on first use in
// the call.
func (sr *searcher) weight(j int32) (float64, bool) {
	if sr.wStamp[j] != sr.call {
		sr.w[j], sr.usable[j] = sr.cost(sr.ix.Edges[j], sr.snap)
		sr.wStamp[j] = sr.call
	}
	return sr.w[j], sr.usable[j]
}

// push is container/heap.Push: append, then sift up.
func (sr *searcher) push(v int32, c float64) {
	sr.heap = append(sr.heap, entry{node: v, cost: c})
	h := sr.heap
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
func (sr *searcher) pop() entry {
	h := sr.heap
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
	sr.heap = h[:n]
	return it
}

// route walks the current search's tree back from dst and leaves the
// path, src first, in sr.path.
func (sr *searcher) route(src, dst int32) {
	sr.path = sr.path[:0]
	for at := dst; ; at = sr.prev[at] {
		sr.path = append(sr.path, at)
		if at == src {
			break
		}
	}
	for i, j := 0, len(sr.path)-1; i < j; i, j = i+1, j-1 {
		sr.path[i], sr.path[j] = sr.path[j], sr.path[i]
	}
}

// edgeTo returns the CSR position of edge u → v, or -1 when there is
// none. A snapshot has at most one edge per ordered pair of nodes.
func (sr *searcher) edgeTo(u, v int32) int32 {
	for j := sr.ix.Off[u]; j < sr.ix.Off[u+1]; j++ {
		if sr.ix.To[j] == v {
			return j
		}
	}
	return -1
}

// banEdge stamps edge u → v, if there is one, with st.
func (sr *searcher) banEdge(u, v int32, st uint32) {
	if j := sr.edgeTo(u, v); j >= 0 {
		sr.edgeBan[j] = st
	}
}

// materialize turns a dense node sequence into a Path with the given
// cost: its node IDs, the position of each hop's edge, and statistics read
// from those edges.
func (sr *searcher) materialize(nodes []int32, cost float64) Path {
	p := Path{
		Nodes: make([]string, len(nodes)),
		Arcs:  make([]int32, len(nodes)-1),
		Cost:  cost,
		Hops:  len(nodes) - 1,
	}
	for i, v := range nodes {
		p.Nodes[i] = sr.ix.Nodes[v].ID
	}
	if p.Hops > 0 {
		p.MinCapacityBps = math.Inf(1)
	}
	for i := range p.Arcs {
		j := sr.edgeTo(nodes[i], nodes[i+1])
		p.Arcs[i] = j
		e := &sr.ix.Edges[j]
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
