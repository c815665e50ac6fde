package routing

import (
	"fmt"
	"math"
	"sync"

	"github.com/openspace-project/openspace/internal/topo"
)

// EdgeLoad tracks live utilisation of directed edges. It is the mutable
// state that makes on-demand routing necessary: "the cost of a path cannot
// be fully predicted since ISL congestion cannot be anticipated" (§2.2).
// Safe for concurrent use.
type EdgeLoad struct {
	mu   sync.RWMutex
	ix   *topo.Index
	used []float64 // committed bps per directed edge, by edge position
}

// NewEdgeLoad returns an empty load tracker for the snapshot's edges,
// measured against their capacities.
func NewEdgeLoad(s *topo.Snapshot) *EdgeLoad {
	ix := s.Index()
	return &EdgeLoad{ix: ix, used: make([]float64, len(ix.Edges))}
}

// Utilization implements LoadMap.
func (l *EdgeLoad) Utilization(from, to string) float64 {
	j := l.ix.Arc(from, to)
	if j < 0 {
		return 0
	}
	c := l.ix.Edges[j].CapacityBps
	if c <= 0 {
		return 0
	}
	l.mu.RLock()
	u := l.used[j] / c
	l.mu.RUnlock()
	if u > 1 {
		u = 1
	}
	return u
}

// Commit reserves bps along the path (in the forward direction).
func (l *EdgeLoad) Commit(p Path, bps float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i+1 < len(p.Nodes); i++ {
		if j := l.ix.Arc(p.Nodes[i], p.Nodes[i+1]); j >= 0 {
			l.used[j] += bps
		}
	}
}

// OnDemandRouter computes paths at request time against live load — the
// paper's second-stage regime for a scaled-up OpenSpace. Each request sees
// the congestion left by previously admitted flows.
type OnDemandRouter struct {
	snap   *topo.Snapshot
	policy QoSPolicy
	load   *EdgeLoad
}

// NewOnDemandRouter creates a router on one snapshot. The policy's Load
// field is overridden with the router's own tracker.
func NewOnDemandRouter(snap *topo.Snapshot, policy QoSPolicy) *OnDemandRouter {
	load := NewEdgeLoad(snap)
	policy.Load = load
	if policy.LoadPenalty == 0 {
		policy.LoadPenalty = 5
	}
	return &OnDemandRouter{snap: snap, policy: policy, load: load}
}

// Load exposes the live tracker (e.g. for metrics).
func (r *OnDemandRouter) Load() *EdgeLoad { return r.load }

// Admit finds a path for a flow of the given rate and commits its bandwidth.
// It fails if no path can carry the flow without saturating a link.
func (r *OnDemandRouter) Admit(src, dst string, bps float64) (Path, error) {
	if !(bps > 0) || math.IsInf(bps, 1) {
		return Path{}, fmt.Errorf("routing: on-demand: rate %v must be positive and finite", bps)
	}
	// A link is usable only if the new flow still fits.
	base := r.policy.Cost()
	cost := func(e topo.Edge, s *topo.Snapshot) (float64, bool) {
		c, ok := base(e, s)
		if !ok {
			return 0, false
		}
		if r.load.Utilization(s.NodeAt(e.From).ID, s.NodeAt(e.To).ID)+bps/e.CapacityBps > 1 {
			return 0, false
		}
		return c, true
	}
	p, err := ShortestPath(r.snap, src, dst, cost)
	if err != nil {
		return Path{}, err
	}
	r.load.Commit(p, bps)
	return p, nil
}
