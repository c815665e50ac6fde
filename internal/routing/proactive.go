package routing

import (
	"fmt"
	"sync"

	"github.com/openspace-project/openspace/internal/topo"
)

// ProactiveRouter precomputes routes over a time-expanded topology — the
// paper's first-stage routing regime (§2.2): the topology "is both known and
// public, allowing for pre-computation of static routes between any set of
// satellites and fixed ground infrastructure". Route tables are computed
// lazily per (snapshot, destination) and cached; the cost function must be
// load-independent for the precomputation to be sound.
type ProactiveRouter struct {
	te   *topo.TimeExpanded
	cost CostFunc

	mu     sync.Mutex
	tables map[tableKey]*table
}

type tableKey struct {
	snapIdx int
	dst     string
}

// table is a reverse shortest-path tree toward one destination.
type table struct {
	next map[string]string // node → next hop toward dst
	dist map[string]float64
}

// NewProactiveRouter creates a router over the series with the given
// (load-independent) cost function.
func NewProactiveRouter(te *topo.TimeExpanded, cost CostFunc) *ProactiveRouter {
	return &ProactiveRouter{te: te, cost: cost, tables: make(map[tableKey]*table)}
}

// Route returns the full path from src to dst valid at time t.
func (r *ProactiveRouter) Route(t float64, src, dst string) (Path, error) {
	snap := r.te.At(t)
	if snap == nil {
		return Path{}, fmt.Errorf("routing: proactive: no snapshot at t=%.1f", t)
	}
	return ShortestPath(snap, src, dst, r.cost)
}

// NextHop returns the precomputed next hop from node toward dst at time t —
// the per-satellite forwarding decision. Tables are built on first use per
// (snapshot, destination) with a single reverse Dijkstra, exploiting
// symmetric edges.
func (r *ProactiveRouter) NextHop(t float64, node, dst string) (string, error) {
	snap := r.te.At(t)
	if snap == nil {
		return "", fmt.Errorf("routing: proactive: no snapshot at t=%.1f", t)
	}
	idx := r.snapIndex(snap)
	key := tableKey{snapIdx: idx, dst: dst}

	r.mu.Lock()
	tab, ok := r.tables[key]
	r.mu.Unlock()
	if !ok {
		var err error
		tab, err = r.buildTable(snap, dst)
		if err != nil {
			return "", err
		}
		r.mu.Lock()
		r.tables[key] = tab
		r.mu.Unlock()
	}
	hop, ok := tab.next[node]
	if !ok {
		return "", fmt.Errorf("%w: %s → %s at t=%.1f", ErrNoPath, node, dst, t)
	}
	return hop, nil
}

// buildTable runs Dijkstra rooted at dst; because every edge has a
// symmetric twin, the predecessor toward dst is the next hop from each node.
func (r *ProactiveRouter) buildTable(snap *topo.Snapshot, dst string) (*table, error) {
	dist, prev, err := Tree(snap, dst, r.cost)
	if err != nil {
		return nil, err
	}
	return &table{next: prev, dist: dist}, nil
}

func (r *ProactiveRouter) snapIndex(snap *topo.Snapshot) int {
	for i, s := range r.te.Snaps {
		if s == snap {
			return i
		}
	}
	return -1
}

// CostTo returns the precomputed path cost from node to dst at time t.
func (r *ProactiveRouter) CostTo(t float64, node, dst string) (float64, error) {
	if _, err := r.NextHop(t, node, dst); err != nil && node != dst {
		return 0, err
	}
	snap := r.te.At(t)
	key := tableKey{snapIdx: r.snapIndex(snap), dst: dst}
	r.mu.Lock()
	tab := r.tables[key]
	r.mu.Unlock()
	if tab == nil {
		return 0, fmt.Errorf("%w: %s → %s", ErrNoPath, node, dst)
	}
	d, ok := tab.dist[node]
	if !ok {
		return 0, fmt.Errorf("%w: %s → %s", ErrNoPath, node, dst)
	}
	return d, nil
}
