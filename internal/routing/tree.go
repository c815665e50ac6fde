package routing

import "math"

// treeSlack is the relative margin by which a spur path answered from
// the reverse tree must beat every other spur path. Its cost c is known
// only through float sums: h(x) summed backward from dst by the tree,
// the search's distance summed forward from the spur. By spurSlack's
// argument each is within about n·2⁻⁵³·c of the exact cost on a graph
// of n nodes, as are a rival path's bound and the tree's slack, which
// are differences of such sums. Twice spurSlack leaves the exact cost of
// every rival above the answer's, and the float distance the search
// gives it above the answer's too, so the search, which keeps only
// strict improvements, settles dst through the answer and nothing else.
const treeSlack = 2 * spurSlack

// tree makes dst's reverse shortest-path tree current, building it unless
// the last Yen call on the context routed to dst.
func (g *Graph) tree(dst int32) {
	if g.treeDst == dst {
		g.treesReused++
		return
	}
	g.treesBuilt++
	g.treeDst = dst
	if !g.transposed {
		g.transpose()
	}
	n := len(g.ix.Nodes)
	if len(g.h) < n {
		g.h = make([]float64, n)
		g.succ = make([]int32, n)
		g.slack = make([]float64, n)
	}
	for v := range n {
		g.h[v], g.succ[v] = math.Inf(1), -1
	}
	g.treeWhole = true
	g.reverse(dst)
	g.slacken()
}

// transpose indexes every node's in-edges: rFrom and rArc hold, for the
// edges into v in order of their tails, the tail and the edge position,
// at rOff[v]:rOff[v+1].
func (g *Graph) transpose() {
	off, to := g.ix.Off, g.ix.To
	n, m := len(g.ix.Nodes), len(to)
	if len(g.rOff) < n+1 {
		g.rOff = make([]int32, n+1)
	}
	if len(g.rArc) < m {
		g.rFrom = make([]int32, m)
		g.rArc = make([]int32, m)
	}
	rOff := g.rOff[:n+1]
	clear(rOff)
	for _, v := range to {
		rOff[v+1]++
	}
	for v := 1; v <= n; v++ {
		rOff[v] += rOff[v-1]
	}
	// Fill each row from its start, using rOff[v] as the cursor, which
	// leaves it at the next row's start; then shift the offsets back.
	for u := range int32(n) {
		for j := off[u]; j < off[u+1]; j++ {
			v := to[j]
			g.rFrom[rOff[v]], g.rArc[rOff[v]] = u, j
			rOff[v]++
		}
	}
	copy(rOff[1:], rOff[:n])
	rOff[0] = 0
	g.transposed = true
}

// reverse runs Dijkstra backward from dst over the context's usable
// edges, with no bans and no limit, filling h and succ and recording the
// settle order. Ties go to the first edge relaxed; a tied alternative
// leaves zero slack, so the tree never answers through it. It stamps done
// under a stamp of its own, so a spur search whose bans are already
// stamped can still run after it. An edge whose sum is +Inf (an
// infinite weight, or an overflow) relaxes nothing here, while a search
// still takes it into a node it has not seen; when such an edge leads to
// a node the tree has not reached, reverse clears treeWhole.
//
//lint:hotpath
func (g *Graph) reverse(dst int32) {
	g.epoch++
	cur := g.epoch
	var settled uint64
	g.heap = g.heap[:0]
	g.order = g.order[:0]
	g.h[dst] = 0
	g.push(dst, 0)
	for len(g.heap) > 0 {
		it := g.pop()
		u := it.node
		if g.done[u] == cur {
			continue
		}
		g.done[u] = cur
		settled++
		g.order = append(g.order, u)
		for r := g.rOff[u]; r < g.rOff[u+1]; r++ {
			v, j := g.rFrom[r], g.rArc[r]
			w, usable := g.weight(j)
			if !usable {
				continue
			}
			if nd := it.cost + w; nd < g.h[v] {
				g.h[v], g.succ[v] = nd, j
				g.push(v, nd)
			} else if math.IsInf(g.h[v], 1) {
				g.treeWhole = false
			}
		}
	}
	g.treeSettles += settled
}

// slacken sets slack(v) for every node the tree reached: the least
// w(v, z) + h(z) − h(v) over v's usable out-edges other than its tree hop,
// or the slack of its tree successor if less. Nodes are taken in settle
// order, so a successor's slack is ready before it is needed; slack(dst)
// is +Inf, since a search stops when it settles dst.
//
//lint:hotpath
func (g *Graph) slacken() {
	off, to := g.ix.Off, g.ix.To
	for _, v := range g.order {
		least := math.Inf(1)
		if hop := g.succ[v]; hop >= 0 {
			least = g.slack[to[hop]]
			for j := off[v]; j < off[v+1]; j++ {
				if j == hop {
					continue
				}
				w, usable := g.weight(j)
				if !usable {
					continue
				}
				if d := w + g.h[to[j]] - g.h[v]; d < least {
					least = d
				}
			}
		}
		g.slack[v] = least
	}
}

// first runs the call's first search, from src to dst with nothing
// banned: from dst's tree when it is current and answers exactly (as a
// spur at src with no bans), else by search. It reports whether dst is
// reachable and, if so, the path's cost as the search sums it, leaving
// the path in g.path.
func (g *Graph) first(src, dst int32) (float64, bool) {
	if g.treeDst == dst && src != dst {
		if d, found, ok := g.answer(src); ok {
			g.firstAnswered++
			return d, found
		}
	}
	if !g.find(src, dst) {
		return 0, false
	}
	return g.dist[dst], true
}

// tied reports whether the path the first search left in g.path, of cost
// d, ties another way into one of its nodes to within treeSlack·d: an edge
// u → v from a node u the search settled, other than v's predecessor,
// with dist(u) + w(u, v) ≤ dist(v) + treeSlack·d. Only tails u that are
// also v's out-neighbours are looked at, which finds every tie on a
// snapshot whose links run both ways. A tied first path is the sign of a
// cost that ties everywhere, as hop counting does on a +Grid; there the
// tree declines nearly every spur, so the call searches them without
// building it. This only decides where the work goes: either way every
// spur gets the search's answer.
func (g *Graph) tied(d float64) bool {
	off, to := g.ix.Off, g.ix.To
	p := g.path
	for i := 1; i < len(p); i++ {
		v := p[i]
		for j := off[v]; j < off[v+1]; j++ {
			u := to[j]
			if u == p[i-1] || g.done[u] != g.cur {
				continue
			}
			in := g.edgeTo(u, v)
			if in < 0 {
				continue
			}
			if w, usable := g.weight(in); usable && g.dist[u]+w <= g.dist[v]+treeSlack*d {
				return true
			}
		}
	}
	return false
}

// spur runs the current spur search from s to dst, answering it from the
// tree when useTree is set and the answer is exact (answer), and searching
// otherwise. It reports whether a path was found, leaving it in g.path.
func (g *Graph) spur(s, dst int32, useTree bool) bool {
	if useTree {
		if _, found, ok := g.answer(s); ok {
			g.answered++
			return found
		}
	}
	g.declined++
	before := g.settles
	found := g.find(s, dst)
	g.spurSettles += g.settles - before
	return found
}

// answer tries to answer the current spur search from s from the reverse
// tree, by the argument in KShortestPaths' doc. ok reports whether it
// did; found is then what find would have returned, and a found path is
// in g.path, with d its cost as the search sums it. Only edges out of s
// may be banned for the search, as Yen's spurs ban them: the tree path
// checked here never leaves s. s must not be the tree's destination.
//
// A spur none of whose unbanned usable edges leads to a node the tree
// reached has no path when the tree is whole: a whole tree reached every
// node with a path of usable edges to dst, and bans only remove edges.
//
//lint:hotpath
func (g *Graph) answer(s int32) (d float64, found, ok bool) {
	cur, call, dst := g.cur, g.call, g.treeDst
	off, to := g.ix.Off, g.ix.To
	best, c, rival, reach := int32(-1), math.Inf(1), math.Inf(1), false
	for j := off[s]; j < off[s+1]; j++ {
		if g.banned[to[j]] == cur || g.edgeBan[j] == call || g.edgeBan[j] == cur {
			continue
		}
		w, usable := g.weight(j)
		if !usable {
			continue
		}
		h := g.h[to[j]]
		reach = reach || !math.IsInf(h, 1)
		if b := w + h; b < c {
			best, c, rival = j, b, c
		} else if b < rival {
			rival = b
		}
	}
	if !reach && g.treeWhole {
		return 0, false, true
	}
	if best < 0 || !(rival > c*(1+treeSlack)) || !(g.slack[to[best]] > treeSlack*c) {
		return 0, false, false
	}
	for v := to[best]; v != dst; v = to[g.succ[v]] {
		if v == s || g.banned[v] == cur {
			return 0, false, false
		}
	}
	// The search's distance to dst: its pops cost at most the limit up to
	// and including dst's exactly when this sum does.
	for j := best; j >= 0; j = g.succ[to[j]] {
		w, _ := g.weight(j)
		d += w
	}
	if d > g.limit {
		return 0, false, true
	}
	g.path = append(g.path[:0], s)
	for v := to[best]; ; v = to[g.succ[v]] {
		g.path = append(g.path, v)
		if v == dst {
			return d, true, true
		}
	}
}
