package routing

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"github.com/openspace-project/openspace/internal/topo"
)

// The map-based Dijkstra, Yen and iterated-removal disjoint paths that the
// dense searcher replaced, kept as differential oracles: every string
// lookup, heap push and tie-break is the original's, so any divergence in
// node sequences or Cost bits is a behaviour change of the dense port.

func oracleShortestPath(s *topo.Snapshot, src, dst string, cost CostFunc) (Path, error) {
	if s.Node(src) == nil {
		return Path{}, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	if s.Node(dst) == nil {
		return Path{}, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	dist, prev := dijkstra(s, src, cost, dst)
	if _, ok := dist[dst]; !ok {
		return Path{}, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	return buildPath(s, src, dst, dist[dst], prev), nil
}

// dijkstra runs the search; if stopAt is non-empty the search terminates
// once that node is settled.
func dijkstra(s *topo.Snapshot, src string, cost CostFunc, stopAt string) (map[string]float64, map[string]string) {
	dist := map[string]float64{src: 0}
	prev := map[string]string{}
	done := map[string]bool{}
	q := &pq{{id: src, cost: 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(item)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if stopAt != "" && cur.id == stopAt {
			break
		}
		for _, e := range s.Neighbors(cur.id) {
			w, usable := cost(e, s)
			if !usable || w < 0 {
				continue
			}
			nd := cur.cost + w
			to := s.NodeAt(e.To).ID
			if old, ok := dist[to]; !ok || nd < old {
				dist[to] = nd
				prev[to] = cur.id
				heap.Push(q, item{id: to, cost: nd})
			}
		}
	}
	return dist, prev
}

// buildPath reconstructs the node sequence and edge stats from prev links.
func buildPath(s *topo.Snapshot, src, dst string, cost float64, prev map[string]string) Path {
	var rev []string
	for at := dst; ; {
		rev = append(rev, at)
		if at == src {
			break
		}
		at = prev[at]
	}
	nodes := make([]string, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return oraclePath(s, nodes, cost)
}

// oraclePath fills the edge positions and statistics of the path along
// nodes by string lookups.
func oraclePath(s *topo.Snapshot, nodes []string, cost float64) Path {
	p := Path{Nodes: nodes, Cost: cost, Hops: len(nodes) - 1}
	if p.Hops > 0 {
		p.MinCapacityBps = math.Inf(1)
	}
	for i := 0; i+1 < len(nodes); i++ {
		p.Arcs = append(p.Arcs, s.Index().Arc(nodes[i], nodes[i+1]))
		e, _ := s.Edge(nodes[i], nodes[i+1])
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

func oracleKShortestPaths(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := oracleShortestPath(s, src, dst, cost)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	var candidates []Path

	for len(paths) < k {
		prevPath := paths[len(paths)-1].Nodes
		// For each spur node in the previous path, search for a deviation.
		for i := 0; i < len(prevPath)-1; i++ {
			spur := prevPath[i]
			rootNodes := prevPath[:i+1]

			// Edges to exclude: the next hop of every accepted path that
			// shares this root.
			banEdge := map[[2]string]bool{}
			for _, p := range paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootNodes) {
					banEdge[[2]string{p.Nodes[i], p.Nodes[i+1]}] = true
				}
			}
			// Nodes of the root (except the spur) are excluded to keep
			// paths loopless.
			banNode := map[string]bool{}
			for _, n := range rootNodes[:len(rootNodes)-1] {
				banNode[n] = true
			}
			restricted := func(e topo.Edge, snap *topo.Snapshot) (float64, bool) {
				from, to := edgeIDs(snap, e)
				if banNode[to] || banNode[from] || banEdge[[2]string{from, to}] {
					return 0, false
				}
				return cost(e, snap)
			}
			spurPath, err := oracleShortestPath(s, spur, dst, restricted)
			if err != nil {
				continue
			}
			total := joinPaths(s, rootNodes, spurPath.Nodes, cost)
			if total != nil && !containsPath(paths, total.Nodes) && !containsPath(candidates, total.Nodes) {
				candidates = append(candidates, *total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].Cost != candidates[b].Cost { //lint:allow floateq exact sort tie-break keeps k-path order deterministic
				return candidates[a].Cost < candidates[b].Cost
			}
			return lessNodes(candidates[a].Nodes, candidates[b].Nodes)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

func equalPrefix(nodes, prefix []string) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(paths []Path, nodes []string) bool {
	for _, p := range paths {
		if len(p.Nodes) != len(nodes) {
			continue
		}
		same := true
		for i := range nodes {
			if p.Nodes[i] != nodes[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func lessNodes(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// joinPaths concatenates root (ending at the spur) with spurPath (starting
// at the spur) and recomputes stats; returns nil if the join would loop.
func joinPaths(s *topo.Snapshot, root, spurPath []string, cost CostFunc) *Path {
	nodes := make([]string, 0, len(root)+len(spurPath)-1)
	nodes = append(nodes, root...)
	nodes = append(nodes, spurPath[1:]...)
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n] {
			return nil
		}
		seen[n] = true
	}
	var total float64
	for i := 0; i+1 < len(nodes); i++ {
		e, ok := s.Edge(nodes[i], nodes[i+1])
		if !ok {
			return nil
		}
		w, usable := cost(e, s)
		if !usable {
			return nil
		}
		total += w
	}
	p := oraclePath(s, nodes, total)
	return &p
}

func oracleDisjointPaths(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	banned := map[[2]string]bool{}
	restricted := func(e topo.Edge, snap *topo.Snapshot) (float64, bool) {
		from, to := edgeIDs(snap, e)
		if banned[[2]string{from, to}] || banned[[2]string{to, from}] {
			return 0, false
		}
		return cost(e, snap)
	}
	var paths []Path
	for len(paths) < k {
		p, err := oracleShortestPath(s, src, dst, restricted)
		if err != nil {
			if len(paths) == 0 {
				return nil, err
			}
			break // no more disjoint capacity
		}
		paths = append(paths, p)
		if len(p.Nodes) < 2 {
			break // src == dst: the zero-hop path uses no edges; one copy suffices
		}
		for i := 0; i+1 < len(p.Nodes); i++ {
			banned[[2]string{p.Nodes[i], p.Nodes[i+1]}] = true
		}
	}
	return paths, nil
}
