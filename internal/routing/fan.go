package routing

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/topo"
)

// Fan answers shortest paths from one source to several destinations
// from one Dijkstra search on one routing context. The search stops at
// the first destination asked for, and a later one it has not settled
// yet resumes it from the node it stopped at. A search stopped at dst has
// settled a prefix of the nodes one uninterrupted search settles, in the
// same order, and a settled node's predecessor never changes, so each
// answer is exactly ShortestPath(s, src, dst, cost): the same nodes, arcs
// and cost, ties included, in whatever order the destinations are asked.
//
// A Fan is not safe for concurrent use.
type Fan struct {
	g   *Graph
	src int32
	at  int32 // the node the search stopped at; -1 once it has settled every reachable node
}

// NewFan opens a search out of src on a pooled routing context for the
// snapshot under cost; it fails as ShortestPath does when src is not in
// the snapshot. The caller owns the fan until Release, and cost must be a
// pure function of the edge until then.
func NewFan(s *topo.Snapshot, src string, cost CostFunc) (*Fan, error) {
	si, ok := s.Index().Lookup(src)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	g := NewGraph(s, cost)
	g.begin()
	g.next()
	g.search(si, si)
	g.fan = Fan{g: g, src: si, at: si}
	return &g.fan, nil
}

// Release returns the fan's routing context to the pool. The fan must not
// be used afterwards.
func (f *Fan) Release() { f.g.Release() }

// reach settles dst, resuming the search if it has not yet, and reports
// whether dst is reachable. If so, its path is left in g.path.
func (f *Fan) reach(dst int32) bool {
	g := f.g
	if !g.reached(dst) && f.at >= 0 {
		g.resume(f.at, dst)
		f.at = -1
		if g.reached(dst) {
			f.at = dst
		}
	}
	if !g.reached(dst) {
		return false
	}
	g.route(f.src, dst)
	return true
}

// Path returns ShortestPath(s, src, dst, cost) for the fan's snapshot,
// source and cost, error included.
func (f *Fan) Path(dst string) (Path, error) {
	g := f.g
	di, ok := g.ix.Lookup(dst)
	if !ok {
		return Path{}, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	if !f.reach(di) {
		return Path{}, fmt.Errorf("%w: %s → %s", ErrNoPath, g.ix.Nodes[f.src].ID, dst)
	}
	return g.materialize(g.path, g.dist[di]), nil
}

// Reach reports whether dst is in the snapshot and reachable and, if so,
// the Hops and DelayS of Path(dst), the delay summed in the same order,
// without building the path.
func (f *Fan) Reach(dst string) (hops int, delayS float64, ok bool) {
	g := f.g
	di, ok := g.ix.Lookup(dst)
	if !ok || !f.reach(di) {
		return 0, 0, false
	}
	for i := 1; i < len(g.path); i++ {
		delayS += g.ix.Edges[g.edgeTo(g.path[i-1], g.path[i])].DelayS
	}
	return len(g.path) - 1, delayS, true
}
