package traffic

import (
	"fmt"
	"math"
	"slices"

	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// AllocConfig parameterises the max-min fair allocator.
type AllocConfig struct {
	// KPaths is how many loopless shortest paths (routing.KShortestPaths)
	// are considered per demand; the widest of them — largest bottleneck
	// capacity under this network's link capacities — carries the demand.
	// ≤ 0 means 1 (pure shortest path).
	KPaths int
	// Cost scores candidate paths. Nil means GatewayTransitCost: latency
	// with user access links excluded, whose routes the Network memoises.
	// An explicit Cost must be a pure function of (edge, snapshot) for the
	// duration of a MaxMinFair call: each pair is routed once per call, and
	// the router memoises edge weights.
	Cost routing.CostFunc
}

// DemandAllocation is one demand's outcome.
type DemandAllocation struct {
	Demand
	// Path is the node sequence carrying the demand; nil when the network
	// offers no route. It is read-only: demands with the same (Src, Dst)
	// share one slice, in one allocation and across allocations on one
	// Network.
	Path []string
	// Arcs holds the position in the network snapshot's Index().Edges of
	// each hop of Path; nil with Path. Read-only and shared like Path.
	Arcs []int32
	// RateBps is the allocated rate, ≤ OfferedBps.
	RateBps float64
	// Bottleneck names the saturated link that froze this demand's rate.
	// It is the zero LinkID when the demand is fully satisfied or has no
	// path.
	Bottleneck LinkID
}

// Satisfied reports whether the demand got its full offered rate.
func (d *DemandAllocation) Satisfied() bool {
	return d.Path != nil && d.RateBps >= d.OfferedBps
}

// Allocation is a complete max-min fair assignment.
type Allocation struct {
	Demands []DemandAllocation
	net     *Network
	load    []float64 // carried bps per edge, by edge position
}

// Utilization returns the carried fraction, in [0, 1], of the capacity of
// the directed link at position j in the network snapshot's Index().Edges.
func (a *Allocation) Utilization(j int32) float64 {
	if a.net.caps[j] <= 0 {
		return 0
	}
	u := a.load[j] / a.net.caps[j]
	if u > 1 {
		return 1
	}
	return u
}

// OfferedBps sums the offered load over all demands.
func (a *Allocation) OfferedBps() float64 {
	var total float64
	for i := range a.Demands {
		total += a.Demands[i].OfferedBps
	}
	return total
}

// CarriedBps sums the allocated rates: the traffic the constellation
// actually carries.
func (a *Allocation) CarriedBps() float64 {
	var total float64
	for i := range a.Demands {
		total += a.Demands[i].RateBps
	}
	return total
}

// SatisfiedFraction is carried/offered load, 1 with no demands.
func (a *Allocation) SatisfiedFraction() float64 {
	off := a.OfferedBps()
	if off <= 0 {
		return 1
	}
	return a.CarriedBps() / off
}

// JainIndex is Jain's fairness index over the per-demand satisfaction
// ratios rate/offered: 1 when every demand gets the same share of its ask,
// approaching 1/n when one demand starves the rest. 1 with no demands.
func (a *Allocation) JainIndex() float64 {
	var sum, sumSq float64
	n := 0
	for i := range a.Demands {
		d := &a.Demands[i]
		if d.OfferedBps <= 0 {
			continue
		}
		x := d.RateBps / d.OfferedBps
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// MaxUtilization returns the most loaded link and its utilisation — the
// system bottleneck. The zero LinkID is returned when nothing is loaded.
func (a *Allocation) MaxUtilization() (LinkID, float64) {
	var best LinkID
	var bestU float64
	s := a.net.Snap
	for j, e := range s.Edges() {
		if u := a.Utilization(int32(j)); u > bestU {
			best, bestU = LinkID{s.NodeAt(e.From).ID, s.NodeAt(e.To).ID}, u
		}
	}
	return best, bestU
}

// fillState is the progressive-filling working set. Links are edge
// positions in the network's snapshot, so the fill loop runs over slices
// instead of recomputing per-link membership maps every round. Everything
// here is preallocated before run starts: the kernel itself must not
// allocate (see TestAllocGateMaxMinFill).
type fillState struct {
	eps       float64
	ix        *topo.Index // the snapshot's graph: edges by position, their endpoints by node position
	linkCap   []float64   // the network's capacities, by edge position
	linkLoad  []float64   // the allocation's load, by edge position
	linkUsers []int32     //lint:scratch — active demands per edge, decremented on freeze
	active    []bool      //lint:scratch
	nActive   int
}

// freeze takes demand i out of the fill and releases its link shares.
func (st *fillState) freeze(dems []DemandAllocation, i int) {
	st.active[i] = false
	st.nActive--
	for _, li := range dems[i].Arcs {
		st.linkUsers[li]--
	}
}

// run is the progressive-filling kernel: every unfrozen demand's rate
// rises at the same pace; a demand freezes when it reaches its offered
// load or when a link on its path saturates. Rounds, demands, and links
// are traversed in fixed order, and each round adds one identical delta
// per active user to each link's load, so the result is bit-identical
// however the links are numbered.
//
//lint:hotpath
func (st *fillState) run(dems []DemandAllocation) {
	for st.nActive > 0 {
		// The uniform rate increment until the first event: a link
		// saturating or a demand reaching its offered load.
		delta := math.Inf(1)
		for i := range dems {
			if !st.active[i] {
				continue
			}
			if room := dems[i].OfferedBps - dems[i].RateBps; room < delta {
				delta = room
			}
			for _, li := range dems[i].Arcs {
				if nu := st.linkUsers[li]; nu > 0 {
					if room := (st.linkCap[li] - st.linkLoad[li]) / float64(nu); room < delta {
						delta = room
					}
				}
			}
		}
		if delta < 0 {
			delta = 0
		}
		for i := range dems {
			if !st.active[i] {
				continue
			}
			dems[i].RateBps += delta
			for _, li := range dems[i].Arcs {
				st.linkLoad[li] += delta
			}
		}
		// Freeze demands at their offered load or behind a saturated link.
		froze := false
		for i := range dems {
			if !st.active[i] {
				continue
			}
			d := &dems[i]
			if d.RateBps >= d.OfferedBps-st.eps {
				d.RateBps = d.OfferedBps
				st.freeze(dems, i)
				froze = true
				continue
			}
			for _, li := range d.Arcs {
				if st.linkLoad[li] >= st.linkCap[li]-st.eps {
					e := &st.ix.Edges[li]
					d.Bottleneck = LinkID{st.ix.Nodes[e.From].ID, st.ix.Nodes[e.To].ID}
					st.freeze(dems, i)
					froze = true
					break
				}
			}
		}
		if !froze {
			// Float-tolerance stall: nothing crossed a threshold despite a
			// minimal delta. Freeze everything at current rates to
			// guarantee termination; the allocation stays feasible.
			for i := range dems {
				if st.active[i] {
					st.freeze(dems, i)
				}
			}
		}
	}
}

// prepareFill routes every demand onto the widest of its k shortest
// paths and builds the fill state — the allocating, cold half of
// MaxMinFair. The widest-of-k choice is a pure function of the snapshot,
// the capacities, the cost, k and the endpoints (pathBottleneckBps reads
// only the network's capacities), so each distinct (src, dst) is routed
// once, and in any order. Under the default cost the route lands in the
// network's memo (routeMemo) and serves every later call at that k; an
// explicit cost routes on a private memo. Missing pairs go through one
// routing context grouped by destination, so that Yen calls to one
// destination share its reverse tree, and every demand of a pair takes
// the pair's Path and Arcs, or its lack of a route.
func prepareFill(n *Network, demands []Demand, cfg AllocConfig) (*Allocation, *fillState, error) {
	k := max(cfg.KPaths, 1)
	ix := n.Snap.Index()
	alloc := &Allocation{
		Demands: make([]DemandAllocation, len(demands)),
		net:     n,
		load:    make([]float64, len(ix.Edges)),
	}
	st := &fillState{
		eps:       n.eps(),
		ix:        ix,
		linkCap:   n.caps,
		linkLoad:  alloc.load,
		linkUsers: make([]int32, len(ix.Edges)),
		active:    make([]bool, len(demands)),
	}
	// keys[i] is demand i's node positions, packed destination first.
	keys := make([]uint64, len(demands))
	for i, d := range demands {
		alloc.Demands[i].Demand = d
		if !(d.OfferedBps >= 0) {
			return nil, nil, fmt.Errorf("traffic: demand %s→%s has offered load %v, want ≥ 0", d.Src, d.Dst, d.OfferedBps)
		}
		si, okSrc := ix.Lookup(d.Src)
		di, okDst := ix.Lookup(d.Dst)
		if !okSrc || !okDst {
			return nil, nil, fmt.Errorf("traffic: demand %s→%s references unknown node", d.Src, d.Dst)
		}
		keys[i] = uint64(di)<<32 | uint64(si)
	}
	pairs := slices.Clone(keys)
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	memo, cost := &n.routes, cfg.Cost
	if cost != nil {
		memo = new(routeMemo)
	} else {
		cost = GatewayTransitCost()
	}
	slots := memo.slots(k, pairs)
	memo.fill(n, cost, k, pairs, slots)
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for i, key := range keys {
		j, _ := slices.BinarySearch(pairs, key)
		r := &memo.routes[slots[j]]
		da := &alloc.Demands[i]
		da.Path, da.Arcs = r.path, r.arcs
		// Yen's paths are loopless, so no link repeats within Arcs and each
		// demand counts once per link it crosses.
		if da.Path != nil && da.OfferedBps > 0 {
			st.active[i] = true
			st.nActive++
			for _, li := range da.Arcs {
				st.linkUsers[li]++
			}
		}
	}
	return alloc, st, nil
}

// widestOfK returns the nodes and edge positions of the widest of the k
// shortest src→dst paths on g — the largest bottleneck capacity, ties to
// the lower Yen rank — or nils when there is no route or every route
// crosses a zero-capacity link.
func widestOfK(n *Network, g *routing.Graph, src, dst string, k int) ([]string, []int32) {
	paths, err := g.KShortestPaths(src, dst, k)
	if err != nil || len(paths) == 0 {
		return nil, nil
	}
	best, bestCap := -1, -1.0
	for pi, p := range paths {
		if c := pathBottleneckBps(n, p.Arcs); c > bestCap {
			best, bestCap = pi, c
		}
	}
	if bestCap <= 0 {
		return nil, nil
	}
	return paths[best].Nodes, paths[best].Arcs
}

// MaxMinFair computes a max-min fair rate allocation for the demands by
// progressive filling: every unfrozen demand's rate rises at the same pace;
// a demand freezes when it reaches its offered load or when a link on its
// path saturates. The result has the max-min property — no demand's rate
// can be raised without lowering the rate of a demand that has no more —
// restricted to the single path each demand is assigned (the widest of its
// k shortest).
//
// Each distinct (Src, Dst) is routed once per Network and k under the
// default cost, whatever the input order and however many calls ask for
// it: demands of one pair share its Path and Arcs, within a call and
// across calls. Concurrent calls on one Network are safe and split the
// routing between them. An explicit Cost routes each pair once per call.
//
// The computation is deterministic: demands are processed in input order,
// each demand's links in path order, and path selection breaks ties toward
// the lower Yen rank.
func MaxMinFair(n *Network, demands []Demand, cfg AllocConfig) (*Allocation, error) {
	alloc, st, err := prepareFill(n, demands, cfg)
	if err != nil {
		return nil, err
	}
	st.run(alloc.Demands)
	return alloc, nil
}

// pathBottleneckBps returns the smallest capacity over the edge positions
// under the network's link capacities (which may differ from the
// snapshot's edge capacities after Recapacitate).
func pathBottleneckBps(n *Network, arcs []int32) float64 {
	bottleneck := math.Inf(1)
	for _, j := range arcs {
		if c := n.caps[j]; c < bottleneck {
			bottleneck = c
		}
	}
	if math.IsInf(bottleneck, 1) {
		return 0
	}
	return bottleneck
}
