package routing

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// same comparison (cmpPath).
//
// Four shortcuts cut the spur searches without changing a single path,
// ties included. A, the accepted paths, and the candidate pool are as in
// Yen; need = k − |A| is the number of rounds left.
//
//   - Lawler's start index. Each accepted path records the index dev at
//     which it deviated from the path whose spur found it (0 for the
//     first path), and is spurred from dev onward. For i < dev the root
//     r = nodes[:i+1] is shared with that parent, and so is the next hop,
//     so accepting the path added no edge ban at r. The bans at a root
//     change only when a path leaving r by a new hop is accepted; such a
//     path deviated at or before i and is itself spurred at i right away.
//     A spur at i < dev therefore repeats, with the same node and edge
//     bans and the same memoised weights, a search already run, and the
//     deterministic search returns the same path, which is already
//     accepted or pooled (or was trimmed, see below).
//   - Pool trimming. Each round accepts the pool's least path, so a path
//     with need paths ahead of it in (cost, node sequence) order is never
//     accepted: paths ahead of it leave only by being accepted, and
//     insertions only push it back. The pool keeps its first need paths.
//     A trimmed path that a later spur finds again still has need paths
//     ahead of it, so dropping it again is the same decision.
//   - Bounded spurs. Once the pool holds need paths, a spur search stops
//     at its first pop costing strictly more than the last pooled path's
//     cost θ, minus the root's cost, plus spurSlack·θ. Any path it misses
//     costs strictly more than θ and would be trimmed. A path costing
//     exactly θ may still rank ahead by node sequence, which is why the
//     bound is strict and why spurSlack absorbs the rounding between the
//     spur's distance and join's total: a path that would tie is always
//     found. θ never rises once the pool is full, so a search that an
//     earlier bound stopped has nothing for a later round either.
//   - Reverse-tree spurs (Kurz & Mutzel 2016). A call's first spur makes
//     dst's reverse shortest-path tree current (tree.go): h(v), the least
//     cost from v to dst with nothing banned, and slack(v), the least
//     extra cost of leaving v's tree path anywhere before dst. Bans only
//     remove edges, so w(s, y) + h(y) bounds every spur path that leaves
//     the spur s by y. Let s → x be the unbanned sidetrack with the least
//     bound c. If x's tree path avoids s and every banned node, s → x
//     followed by it is a spur path costing c. If, besides, every other
//     sidetrack's bound exceeds c·(1 + treeSlack) and slack(x) exceeds
//     treeSlack·c, every other spur path costs more than c by a margin
//     that float rounding cannot close, so it is the search's unique
//     shortest path and the search returns it. A bounded spur sums its
//     weights forward from s, as search does, and compares the sum with
//     the limit, which is the search's own stopping test. A spur none
//     of whose unbanned sidetracks leads to a node the tree reached has
//     no spur path, unless an infinite cost kept the tree from a node
//     that has one. Any other spur (a tie, a banned or looping tree
//     path) runs the search.
//
// The paths returned are therefore plain Yen's, whose i-th path is fixed
// before k is consulted: k only decides when the loop stops. So the first
// k paths still do not depend on k, even though k sets the trim and the
// bound.
func KShortestPaths(s *topo.Snapshot, src, dst string, cost CostFunc, k int) ([]Path, error) {
	g := NewGraph(s, cost)
	defer g.Release()
	return g.KShortestPaths(src, dst, k)
}

// KShortestPaths is the package function KShortestPaths on the context's
// snapshot and cost. Calls to one destination share its reverse tree, so
// a caller routing many pairs does best to group them by destination.
func (g *Graph) KShortestPaths(src, dst string, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	si, di, err := endpoints(g.ix, src, dst)
	if err != nil {
		return nil, err
	}
	g.begin()
	g.next()
	d, found := g.first(si, di)
	if !found {
		return nil, fmt.Errorf("%w: %s → %s", ErrNoPath, src, dst)
	}
	paths := []densePath{{nodes: slices.Clone(g.path), cost: d}}
	var candidates []densePath // sorted by cmpPath, at most need long
	// The spurs use dst's tree unless building it would not pay (tied);
	// the first spur makes it current. A call with k = 1 has no spurs.
	useTree, treeReady := g.treeDst == di, false
	if k > 1 && !useTree {
		if useTree = !g.tied(d); !useTree {
			g.treesSkipped++
		}
	}

	for len(paths) < k {
		need := k - len(paths)
		prev := paths[len(paths)-1]
		var rootCost float64 // cost of prev.nodes[:i+1], summed as join sums it
		// For each spur node from prev's deviation index on, search for a
		// deviation.
		for i := 0; i < len(prev.nodes)-1; i++ {
			if i > 0 {
				rootCost += g.hopCost(prev.nodes[i-1], prev.nodes[i])
			}
			if i < prev.dev {
				continue
			}
			spur := prev.nodes[i]
			root := prev.nodes[:i+1]
			g.next()
			// Edges to exclude: the next hop of every accepted path that
			// shares this root. They all leave the spur.
			for _, p := range paths {
				if hasPrefix(p.nodes, root) {
					g.banEdge(p.nodes[i], p.nodes[i+1], g.cur)
				}
			}
			// Nodes of the root (except the spur) are excluded to keep
			// paths loopless.
			for _, n := range root[:i] {
				g.banned[n] = g.cur
			}
			g.limit = math.Inf(1)
			if len(candidates) == need {
				theta := candidates[need-1].cost
				g.limit = theta - rootCost + spurSlack*theta
			}
			if useTree && !treeReady {
				g.tree(di)
				treeReady = true
			}
			if !g.spur(spur, di, useTree) {
				continue
			}
			total := g.join(root, g.path)
			total.dev = i
			if containsNodes(paths, total.nodes) {
				continue
			}
			at, dup := slices.BinarySearchFunc(candidates, total, cmpPath)
			if dup || at >= need {
				continue
			}
			candidates = slices.Insert(candidates, at, total)
			if len(candidates) > need {
				candidates = candidates[:need]
			}
		}
		if len(candidates) == 0 {
			break
		}
		paths = append(paths, candidates[0])
		candidates = slices.Delete(candidates, 0, 1)
	}
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = g.materialize(p.nodes, p.cost)
	}
	return out, nil
}

// spurSlack is the relative margin a bounded spur search adds to its
// limit. The search compares the spur's Dijkstra distance d, summed from
// the spur, with θ − rootCost, while a candidate's cost is join's sum
// from the source; the two round differently. Weights are non-negative, so
// for a path of m hops each float sum is within about m·2⁻⁵³ of its exact
// value relative to the whole path's cost, and a path whose total is at
// most θ has d ≤ θ − rootCost + (2m+2)·2⁻⁵³·θ. A loopless path
// has fewer hops than the graph has nodes, so 1e-9 covers graphs of up to
// about 4·10⁶ nodes, three orders of magnitude past the largest sweep
// here. A path the margin lets through costs only its insertion, where
// cmpPath ranks it exactly.
const spurSlack = 1e-9

// densePath is a Yen path or candidate in dense node indices. dev is the
// spur index at which it deviated from the path that found it.
type densePath struct {
	nodes []int32
	cost  float64
	dev   int
}

// cmpPath orders paths by cost, then by node sequence.
func cmpPath(a, b densePath) int {
	if c := cmp.Compare(a.cost, b.cost); c != 0 {
		return c
	}
	return slices.Compare(a.nodes, b.nodes)
}

// join concatenates root (ending at the spur) with spurPath (starting at
// the spur) and sums the cost hop by hop from the source, as a fresh
// evaluation of the whole path would. The join is always a loopless path
// of usable edges: the spur search banned every root node but the spur,
// and both halves were found by searches that skip unusable edges.
func (g *Graph) join(root, spurPath []int32) densePath {
	nodes := make([]int32, 0, len(root)+len(spurPath)-1)
	nodes = append(nodes, root...)
	nodes = append(nodes, spurPath[1:]...)
	var total float64
	for i := 0; i+1 < len(nodes); i++ {
		total += g.hopCost(nodes[i], nodes[i+1])
	}
	return densePath{nodes: nodes, cost: total}
}

// hopCost returns the memoised weight of edge u → v.
func (g *Graph) hopCost(u, v int32) float64 {
	w, _ := g.weight(g.edgeTo(u, v))
	return w
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
