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

// SplitFlow divides totalBps across the given paths in proportion to each
// path's bottleneck capacity, never exceeding any bottleneck. It returns
// the per-path allocation (aligned with paths) and the total placed, which
// is less than totalBps when the disjoint set cannot carry it all: a
// demand of at least the summed bottlenecks, +Inf included, fills every
// path. A demand that is not positive, NaN included, places nothing.
func SplitFlow(paths []Path, totalBps float64) ([]float64, float64) {
	if len(paths) == 0 || !(totalBps > 0) {
		return nil, 0
	}
	var capSum float64
	for _, p := range paths {
		capSum += p.MinCapacityBps
	}
	alloc := make([]float64, len(paths))
	if capSum == 0 {
		return alloc, 0
	}
	var placed float64
	for i, p := range paths {
		share := p.MinCapacityBps
		if totalBps < capSum {
			share = min(totalBps*p.MinCapacityBps/capSum, share)
		}
		alloc[i] = share
		placed += share
	}
	return alloc, placed
}
