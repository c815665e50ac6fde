package routing

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/topo"
)

// DisjointPaths returns up to k edge-disjoint paths from src to dst in
// increasing cost order, found by iterated Dijkstra with used edges
// removed. Edge-disjoint alternatives are what the paper's §4 redundancy
// argument buys: "additional satellites ensure … load balancing" — traffic
// split across disjoint routes shares no bottleneck, and a failed ISL
// takes down at most one of them.
//
// Iterated removal is not guaranteed to find the maximum disjoint set (that
// needs Suurballe's algorithm); on dense LEO meshes it finds near-optimal
// sets at a fraction of the complexity, and every returned path is valid
// and mutually edge-disjoint — which is what the splitter needs.
func DisjointPaths(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	sr, si, di, err := acquire(s, src, dst, cost)
	if err != nil {
		return nil, err
	}
	defer sr.release()
	var paths []Path
	for len(paths) < k {
		sr.next()
		if !sr.find(si, di) {
			if len(paths) == 0 {
				return nil, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
			}
			break // no more disjoint capacity
		}
		paths = append(paths, sr.materialize(sr.path, sr.dist[di]))
		if len(sr.path) < 2 {
			break // src == dst: the zero-hop path uses no edges; one copy suffices
		}
		// A used link is banned in both directions for the rest of the call.
		for i := 0; i+1 < len(sr.path); i++ {
			a, b := sr.path[i], sr.path[i+1]
			sr.banEdge(a, b, sr.call)
			sr.banEdge(b, a, sr.call)
		}
	}
	return paths, nil
}
