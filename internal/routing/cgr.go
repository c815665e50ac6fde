package routing

import (
	"container/heap"
	"fmt"
	"math"

	"github.com/openspace-project/openspace/internal/topo"
)

// item is a priority-queue entry.
type item struct {
	id   string
	cost float64
}

type pq []item

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ScheduledHop is one leg of a store-and-forward route: the bundle departs
// From at DepartS (possibly after waiting on board) and arrives at To at
// ArriveS.
type ScheduledHop struct {
	From, To string
	DepartS  float64
	ArriveS  float64
	WaitS    float64 // time spent held at From before this hop
}

// ScheduledRoute is a complete contact-graph route.
type ScheduledRoute struct {
	Hops       []ScheduledHop
	ArrivalS   float64
	TotalWaitS float64
}

// EarliestArrival computes the earliest-arrival store-and-forward route
// from src to dst starting at startS, over the time-expanded topology:
// a bundle may be held at any node (satellites have storage) until a
// usable contact appears in a later snapshot. This is contact-graph
// routing, the delay-tolerant regime that keeps a below-critical-mass
// OpenSpace deployment useful: the paper notes uncooperative satellites
// can be "completely disconnected from the rest of their infrastructure
// for significant periods of time" — with custody transfer, disconnection
// costs latency instead of service.
//
// txS is the per-hop transmission time (bundle size / link rate) added on
// top of propagation delay; pass 0 for small bundles. startS must be
// finite and txS finite and non-negative: a NaN would otherwise flow into
// every arrival time.
func EarliestArrival(te *topo.TimeExpanded, src, dst string, startS, txS float64) (*ScheduledRoute, error) {
	if len(te.Snaps) == 0 {
		return nil, fmt.Errorf("routing: cgr: empty topology series")
	}
	first := te.Snaps[0]
	if first.Node(src) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	if first.Node(dst) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	if math.IsNaN(startS) || math.IsInf(startS, 0) {
		return nil, fmt.Errorf("routing: cgr: start time %v must be finite", startS)
	}
	if !(txS >= 0) || math.IsInf(txS, 1) {
		return nil, fmt.Errorf("routing: cgr: transmission time %v must be finite and non-negative", txS)
	}

	// Dijkstra over arrival times. A node's label is its earliest known
	// arrival; relaxation scans every snapshot from the label's time
	// onward, modelling arbitrary waiting.
	arrival := map[string]float64{src: startS}
	type pred struct {
		from    string
		departS float64
		arriveS float64
	}
	prev := map[string]pred{}
	done := map[string]bool{}
	q := &pq{{id: src, cost: startS}}

	snapStart := func(i int) float64 { return te.Snaps[i].TimeS }
	snapEnd := func(i int) float64 {
		if i+1 < len(te.Snaps) {
			return te.Snaps[i+1].TimeS
		}
		return math.Inf(1) // the last snapshot's topology persists
	}

	for q.Len() > 0 {
		cur := heap.Pop(q).(item)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == dst {
			break
		}
		t := arrival[cur.id]
		for i := range te.Snaps {
			if snapEnd(i) <= t {
				continue // contact over before we arrive
			}
			for _, e := range te.Snaps[i].Neighbors(cur.id) {
				depart := math.Max(t, snapStart(i))
				if depart >= snapEnd(i) {
					continue
				}
				arrive := depart + e.DelayS + txS
				to := te.Snaps[i].NodeAt(e.To).ID
				if old, ok := arrival[to]; !ok || arrive < old {
					arrival[to] = arrive
					prev[to] = pred{from: cur.id, departS: depart, arriveS: arrive}
					heap.Push(q, item{id: to, cost: arrive})
				}
			}
		}
	}
	if _, ok := arrival[dst]; !ok {
		return nil, fmt.Errorf("%w: %s → %s (even with storage)", ErrNoPath, src, dst)
	}

	// Reconstruct.
	var hops []ScheduledHop
	for at := dst; at != src; {
		p := prev[at]
		hops = append(hops, ScheduledHop{From: p.from, To: at, DepartS: p.departS, ArriveS: p.arriveS})
		at = p.from
	}
	// Reverse and fill waits.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	route := &ScheduledRoute{Hops: hops, ArrivalS: arrival[dst]}
	at := startS
	for i := range hops {
		hops[i].WaitS = hops[i].DepartS - at
		route.TotalWaitS += hops[i].WaitS
		at = hops[i].ArriveS
	}
	return route, nil
}
