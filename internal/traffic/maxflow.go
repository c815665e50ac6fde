package traffic

import (
	"fmt"
	"math"

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

// CutCapacityBps sums the cut links' capacities.
func (r *MaxFlowResult) CutCapacityBps() float64 {
	var total float64
	for _, c := range r.MinCut {
		total += c.CapacityBps
	}
	return total
}

// arc is one residual-graph arc. Forward arcs carry the position of
// their snapshot edge and orig = initial capacity; residual counterparts
// have edge = -1 and orig = 0.
type arc struct {
	to, rev, edge int32
	cap, orig     float64
}

// dinicGraph is the indexed residual graph. Node indices are the
// snapshot's dense positions, in sorted ID order, and arcs are inserted in
// the snapshot's (From, To) edge order, so the augmenting sequence — and
// with it every reported flow and cut — is deterministic.
type dinicGraph struct {
	ix  *topo.Index
	adj [][]arc
	eps float64
	// Scratch reused across phases and solves: the steady-state kernel
	// (solve/levels/augment) must not allocate (see TestAllocGateDinic)
	// and nothing aliasing these may leave the receiver (scratchsafe).
	level []int32 //lint:scratch
	queue []int32 //lint:scratch
	iter  []int32 //lint:scratch
}

func newDinicGraph(n *Network) *dinicGraph {
	ix := n.Snap.Index()
	nn := len(ix.Nodes)
	g := &dinicGraph{
		ix:    ix,
		adj:   make([][]arc, nn),
		eps:   n.eps(),
		level: make([]int32, nn),
		queue: make([]int32, 0, nn),
		iter:  make([]int32, nn),
	}
	for u := range ix.Nodes {
		for j := ix.Off[u]; j < ix.Off[u+1]; j++ {
			c := n.caps[j]
			if c <= 0 {
				continue
			}
			v := ix.To[j]
			g.adj[u] = append(g.adj[u], arc{to: v, rev: int32(len(g.adj[v])), edge: j, cap: c, orig: c})
			g.adj[v] = append(g.adj[v], arc{to: int32(u), rev: int32(len(g.adj[u]) - 1), edge: -1, cap: 0, orig: 0})
		}
	}
	return g
}

// levels rebuilds the BFS level graph from src over arcs with residual
// capacity into the scratch level slice; it reports whether dst is still
// reachable. Every node enqueues at most once, so the preallocated queue
// never grows.
func (g *dinicGraph) levels(src, dst int32) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[src] = 0
	q := g.queue[:0]
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, a := range g.adj[u] {
			if a.cap > g.eps && g.level[a.to] < 0 {
				g.level[a.to] = g.level[u] + 1
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
	for ; g.iter[u] < int32(len(g.adj[u])); g.iter[u]++ {
		a := &g.adj[u][g.iter[u]]
		if a.cap <= g.eps || g.level[a.to] != g.level[u]+1 {
			continue
		}
		pushed := g.augment(a.to, dst, math.Min(limit, a.cap))
		if pushed > 0 {
			a.cap -= pushed
			g.adj[a.to][a.rev].cap += pushed
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
		for i := range g.iter {
			g.iter[i] = 0
		}
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

// reset restores every arc to its initial capacity so the same graph can
// be solved again without rebuilding (the alloc gate re-solves in a loop
// to prove the kernel allocates nothing).
func (g *dinicGraph) reset() {
	for u := range g.adj {
		for i := range g.adj[u] {
			g.adj[u][i].cap = g.adj[u][i].orig
		}
	}
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
	s, _ := g.ix.Lookup(src)
	t, _ := g.ix.Lookup(dst)
	value := g.solve(s, t)

	res := &MaxFlowResult{ValueBps: value, Flow: make([]float64, len(g.ix.Edges))}
	for u := range g.adj {
		for _, a := range g.adj[u] {
			if flow := a.orig - a.cap; a.edge >= 0 && flow > g.eps {
				res.Flow[a.edge] = flow
			}
		}
	}
	// Minimum cut: the saturated forward arcs crossing from the residual
	// graph's src-reachable side, the nodes a final level pass reaches,
	// to the rest. Nodes run in sorted ID order and each node's forward
	// arcs in its snapshot row's target order, so the cut comes out sorted
	// by (From, To).
	g.levels(s, t)
	for u := range g.adj {
		if g.level[u] < 0 {
			continue
		}
		for _, a := range g.adj[u] {
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
