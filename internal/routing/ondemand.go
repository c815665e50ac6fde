package routing

import (
	"fmt"
	"sync"

	"github.com/openspace-project/openspace/internal/topo"
)

// EdgeLoad tracks live utilisation of directed edges. It is the mutable
// state that makes on-demand routing necessary: "the cost of a path cannot
// be fully predicted since ISL congestion cannot be anticipated" (§2.2).
// Safe for concurrent use.
type EdgeLoad struct {
	mu   sync.RWMutex
	used map[[2]string]float64 // committed bps per directed edge
	caps map[[2]string]float64 // capacity per directed edge
}

// NewEdgeLoad returns an empty load tracker primed with the snapshot's edge
// capacities.
func NewEdgeLoad(s *topo.Snapshot) *EdgeLoad {
	l := &EdgeLoad{
		used: make(map[[2]string]float64),
		caps: make(map[[2]string]float64),
	}
	for _, e := range s.Edges() {
		l.caps[[2]string{e.From, e.To}] = e.CapacityBps
	}
	return l
}

// Utilization implements LoadMap.
func (l *EdgeLoad) Utilization(from, to string) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	key := [2]string{from, to}
	c := l.caps[key]
	if c <= 0 {
		return 0
	}
	u := l.used[key] / c
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
		l.used[[2]string{p.Nodes[i], p.Nodes[i+1]}] += bps
	}
}

// Release undoes a Commit.
func (l *EdgeLoad) Release(p Path, bps float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i+1 < len(p.Nodes); i++ {
		key := [2]string{p.Nodes[i], p.Nodes[i+1]}
		l.used[key] -= bps
		if l.used[key] < 0 {
			l.used[key] = 0
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
	if bps <= 0 {
		return Path{}, fmt.Errorf("routing: on-demand: rate %.0f must be positive", bps)
	}
	// A link is usable only if the new flow still fits.
	base := r.policy.Cost()
	cost := func(e topo.Edge, s *topo.Snapshot) (float64, bool) {
		c, ok := base(e, s)
		if !ok {
			return 0, false
		}
		if r.load.Utilization(e.From, e.To)+bps/e.CapacityBps > 1 {
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

// Finish releases a previously admitted flow.
func (r *OnDemandRouter) Finish(p Path, bps float64) { r.load.Release(p, bps) }
