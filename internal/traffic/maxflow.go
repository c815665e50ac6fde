package traffic

import (
	"fmt"
	"math"
	"sync"

	"github.com/openspace-project/openspace/internal/topo"
)

// CutLink is one saturated link of a minimum cut.
type CutLink struct {
	LinkID
	CapacityBps float64
}

// MaxFlowResult is the outcome of one max-flow computation.
type MaxFlowResult struct {
	// ValueBps is the maximum src→dst flow.
	ValueBps float64
	// Flow carries the per-link flow of one maximum flow, indexed by edge
	// position in the network snapshot's Index().Edges; links without flow
	// hold 0.
	Flow []float64
	// MinCut is the bottleneck: a minimal set of saturated links whose
	// removal disconnects dst from src, sorted by (From, To). Its total
	// capacity equals ValueBps (max-flow/min-cut duality).
	MinCut []CutLink
}

// arc is one residual-graph arc. Forward arcs carry the position of
// their snapshot edge and orig = initial capacity; residual counterparts
// have edge = -1 and orig = 0. rev is the partner arc's position in the
// graph's flat arc array.
type arc struct {
	to, rev, edge int32
	cap, orig     float64
}

// dinicGraph is the indexed residual graph in compressed sparse rows: node
// u's arcs are arcs[off[u]:off[u+1]]. Node indices are the snapshot's
// dense positions, in sorted ID order, and each node's arcs come in the
// order appending them per edge would give: forward arcs in the
// snapshot's (From, To) edge order, residual arcs in the order their
// forward arcs are visited. So the augmenting sequence — and with it every
// reported flow and cut — is deterministic.
//
// Graphs are pooled: the arrays are scratch, rebuilt by every build, and
// nothing aliasing them may leave the receiver (scratchsafe). The
// steady-state kernel (solve/levels/augment) must not allocate (see
// TestAllocGateDinic).
type dinicGraph struct {
	ix    *topo.Index
	eps   float64
	off   []int32 //lint:scratch
	arcs  []arc   //lint:scratch
	level []int32 //lint:scratch
	queue []int32 //lint:scratch
	iter  []int32 //lint:scratch — next arc to try, by node; the build's insert cursor
}

var dinicGraphs = sync.Pool{New: func() any { return new(dinicGraph) }}

// newDinicGraph returns a pooled residual graph of the network's
// positive-capacity links. The caller may release it when done.
func newDinicGraph(n *Network) *dinicGraph {
	g := dinicGraphs.Get().(*dinicGraph)
	g.build(n)
	return g
}

// release returns the graph to the pool.
func (g *dinicGraph) release() {
	g.ix = nil
	dinicGraphs.Put(g)
}

// build sizes the scratch for the network's snapshot and fills the arcs:
// a counting pass gives each node its arc count (a forward arc at an
// edge's tail and a residual arc at its head), and a second walk in the
// same edge order places each arc at its node's cursor.
func (g *dinicGraph) build(n *Network) {
	ix := n.Snap.Index()
	nn := len(ix.Nodes)
	g.ix, g.eps = ix, n.eps()
	g.off = resized(g.off, nn+1)
	g.level = resized(g.level, nn)
	g.iter = resized(g.iter, nn)
	if cap(g.queue) < nn {
		g.queue = make([]int32, 0, nn)
	}
	clear(g.off)
	for u := range nn {
		for j := ix.Off[u]; j < ix.Off[u+1]; j++ {
			if n.caps[j] > 0 {
				g.off[u+1]++
				g.off[ix.To[j]+1]++
			}
		}
	}
	for u := range nn {
		g.off[u+1] += g.off[u]
	}
	g.arcs = resized(g.arcs, int(g.off[nn]))
	copy(g.iter, g.off[:nn])
	for u := range nn {
		for j := ix.Off[u]; j < ix.Off[u+1]; j++ {
			c := n.caps[j]
			if c <= 0 {
				continue
			}
			v := ix.To[j]
			f := g.iter[u]
			g.iter[u]++
			r := g.iter[v]
			g.iter[v]++
			g.arcs[f] = arc{to: v, rev: r, edge: j, cap: c, orig: c}
			g.arcs[r] = arc{to: int32(u), rev: f, edge: -1}
		}
	}
}

// resized returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// levels rebuilds the BFS level graph from src over arcs with residual
// capacity into the scratch level slice; it reports whether dst is still
// reachable. It stops once dst is labelled: every node of a lower level is
// labelled by then, and a node the search leaves unlabelled would sit at
// dst's level or beyond, a dead end for augment, so the blocking flow is
// the one a full search gives. Every node enqueues at most once, so the
// preallocated queue never grows.
func (g *dinicGraph) levels(src, dst int32) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[src] = 0
	q := g.queue[:0]
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, a := range g.arcs[g.off[u]:g.off[u+1]] {
			if a.cap > g.eps && g.level[a.to] < 0 {
				g.level[a.to] = g.level[u] + 1
				if a.to == dst {
					return true
				}
				q = append(q, a.to)
			}
		}
	}
	return g.level[dst] >= 0
}

// augment pushes a blocking-flow DFS step of at most limit through the
// level graph, advancing the scratch iterators.
func (g *dinicGraph) augment(u, dst int32, limit float64) float64 {
	if u == dst {
		return limit
	}
	for ; g.iter[u] < g.off[u+1]; g.iter[u]++ {
		a := &g.arcs[g.iter[u]]
		if a.cap <= g.eps || g.level[a.to] != g.level[u]+1 {
			continue
		}
		pushed := g.augment(a.to, dst, math.Min(limit, a.cap))
		if pushed > 0 {
			a.cap -= pushed
			g.arcs[a.rev].cap += pushed
			return pushed
		}
	}
	return 0
}

// solve runs Dinic's phase loop to completion and returns the max-flow
// value, mutating arc capacities into the residual of one maximum flow.
// This is the steady-state kernel: everything it touches is preallocated
// scratch on the receiver.
//
//lint:hotpath
func (g *dinicGraph) solve(s, t int32) float64 {
	var value float64
	for g.levels(s, t) {
		copy(g.iter, g.off)
		for {
			pushed := g.augment(s, t, math.Inf(1))
			if pushed <= 0 {
				break
			}
			value += pushed
		}
	}
	return value
}

// MaxFlow computes the maximum src→dst flow of the network with Dinic's
// algorithm, returning the flow value, a per-link flow assignment and the
// minimum cut. Capacities are bps but the solver is unit-agnostic.
func MaxFlow(n *Network, src, dst string) (*MaxFlowResult, error) {
	if n.Snap.Node(src) == nil {
		return nil, fmt.Errorf("traffic: unknown source %q", src)
	}
	if n.Snap.Node(dst) == nil {
		return nil, fmt.Errorf("traffic: unknown destination %q", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("traffic: source and destination are both %q", src)
	}
	g := newDinicGraph(n)
	defer g.release()
	s, _ := g.ix.Lookup(src)
	t, _ := g.ix.Lookup(dst)
	value := g.solve(s, t)

	res := &MaxFlowResult{ValueBps: value, Flow: make([]float64, len(g.ix.Edges))}
	for _, a := range g.arcs {
		if flow := a.orig - a.cap; a.edge >= 0 && flow > g.eps {
			res.Flow[a.edge] = flow
		}
	}
	// Minimum cut: the saturated forward arcs crossing from the residual
	// graph's src-reachable side, the nodes a final level pass reaches
	// (dst is unreachable now, so the pass labels all of them), to the
	// rest. Nodes run in sorted ID order and each node's forward arcs in
	// its snapshot row's target order, so the cut comes out sorted by
	// (From, To). The links are counted first so that the cut is one
	// allocation.
	g.levels(s, t)
	cut := 0
	for u := range g.level {
		if g.level[u] >= 0 {
			for _, a := range g.arcs[g.off[u]:g.off[u+1]] {
				if a.orig > 0 && g.level[a.to] < 0 {
					cut++
				}
			}
		}
	}
	if cut == 0 {
		return res, nil
	}
	res.MinCut = make([]CutLink, 0, cut)
	for u := range g.level {
		if g.level[u] < 0 {
			continue
		}
		for _, a := range g.arcs[g.off[u]:g.off[u+1]] {
			if a.orig > 0 && g.level[a.to] < 0 {
				res.MinCut = append(res.MinCut, CutLink{
					LinkID:      LinkID{g.ix.Nodes[u].ID, g.ix.Nodes[a.to].ID},
					CapacityBps: a.orig,
				})
			}
		}
	}
	return res, nil
}
