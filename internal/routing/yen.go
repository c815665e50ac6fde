package routing

import (
	"fmt"
	"slices"
	"sort"

	"github.com/openspace-project/openspace/internal/topo"
)

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// increasing cost order, using Yen's algorithm. Path diversity matters in
// OpenSpace because the preferred path may cross a provider whose tariff or
// load makes a slightly longer same-provider path preferable — the economics
// layer compares alternatives produced here.
//
// Equal-cost candidates are ordered by their node-ID sequences. Because
// dense indices follow sorted ID order, comparing index sequences is the
// same comparison.
func KShortestPaths(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	sr, si, di, err := acquire(s, src, dst, cost)
	if err != nil {
		return nil, err
	}
	defer sr.release()
	sr.next()
	if !sr.find(si, di) {
		return nil, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	paths := []densePath{{nodes: slices.Clone(sr.path), cost: sr.dist[di]}}
	var candidates []densePath

	for len(paths) < k {
		prevPath := paths[len(paths)-1].nodes
		// For each spur node in the previous path, search for a deviation.
		for i := 0; i < len(prevPath)-1; i++ {
			spur := prevPath[i]
			root := prevPath[:i+1]
			sr.next()
			// Edges to exclude: the next hop of every accepted path that
			// shares this root. They all leave the spur.
			for _, p := range paths {
				if hasPrefix(p.nodes, root) {
					sr.banEdge(p.nodes[i], p.nodes[i+1], sr.cur)
				}
			}
			// Nodes of the root (except the spur) are excluded to keep
			// paths loopless.
			for _, n := range root[:i] {
				sr.banned[n] = sr.cur
			}
			if !sr.find(spur, di) {
				continue
			}
			total := sr.join(root, sr.path)
			if !containsNodes(paths, total.nodes) && !containsNodes(candidates, total.nodes) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].cost != candidates[b].cost { //lint:allow floateq exact sort tie-break keeps k-path order deterministic
				return candidates[a].cost < candidates[b].cost
			}
			return slices.Compare(candidates[a].nodes, candidates[b].nodes) < 0
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = sr.materialize(p.nodes, p.cost)
	}
	return out, nil
}

// densePath is a Yen path or candidate in dense node indices.
type densePath struct {
	nodes []int32
	cost  float64
}

// join concatenates root (ending at the spur) with spurPath (starting at
// the spur) and sums the cost hop by hop from the source, as a fresh
// evaluation of the whole path would. The join is always a loopless path
// of usable edges: the spur search banned every root node but the spur,
// and both halves were found by searches that skip unusable edges.
func (sr *searcher) join(root, spurPath []int32) densePath {
	nodes := make([]int32, 0, len(root)+len(spurPath)-1)
	nodes = append(nodes, root...)
	nodes = append(nodes, spurPath[1:]...)
	var total float64
	for i := 0; i+1 < len(nodes); i++ {
		j := sr.edgeTo(nodes[i], nodes[i+1])
		w, _ := sr.weight(j)
		total += w
	}
	return densePath{nodes: nodes, cost: total}
}

func hasPrefix(nodes, prefix []int32) bool {
	return len(nodes) >= len(prefix) && slices.Equal(nodes[:len(prefix)], prefix)
}

func containsNodes(paths []densePath, nodes []int32) bool {
	for _, p := range paths {
		if slices.Equal(p.nodes, nodes) {
			return true
		}
	}
	return false
}
