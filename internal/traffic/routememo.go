package traffic

import (
	"sync"

	"github.com/openspace-project/openspace/internal/routing"
)

// routeMemo holds a Network's widest-of-k routes under the default cost,
// by (k, src, dst). Each route is computed by the one call that claims
// it. A call that finds a route claimed by another call moves on and
// comes back for it at the end. Entries live in one slice and every
// waiter sleeps on one sync.Cond, so an unshared Network pays a map entry
// and a few uncontended locks per pair, not a channel.
type routeMemo struct {
	mu     sync.Mutex
	stored sync.Cond    // broadcast when a claimed route is stored or given up; L is &mu
	byK    []routeIndex // one per k routed
	routes []memoRoute  // read and written under mu
}

// routeIndex maps a pair's node positions, packed destination first, to
// its entry in routes at one k.
type routeIndex struct {
	k     int
	entry map[uint64]int32
}

type routeState uint8

const (
	routeMissing routeState = iota // no call has claimed it
	routeBusy                      // a call has claimed it and is computing it
	routeDone                      // path and arcs hold the route
)

// memoRoute is one memoised route; path and arcs are nil when the pair has
// no route of positive capacity.
type memoRoute struct {
	path  []string
	arcs  []int32
	state routeState
}

// reset drops every memoised route.
func (m *routeMemo) reset() {
	m.mu.Lock()
	m.byK, m.routes = nil, nil
	m.mu.Unlock()
}

// slots returns the memo entry at k of each of the sorted, distinct pairs,
// adding a missing entry for each pair not seen before.
func (m *routeMemo) slots(k int, pairs []uint64) []int32 {
	out := make([]int32, len(pairs))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stored.L == nil {
		m.stored.L = &m.mu
	}
	var index map[uint64]int32
	for _, ri := range m.byK {
		if ri.k == k {
			index = ri.entry
			break
		}
	}
	if index == nil {
		index = make(map[uint64]int32, len(pairs))
		m.byK = append(m.byK, routeIndex{k, index})
	}
	next := int32(len(m.routes))
	for j, p := range pairs {
		e, ok := index[p]
		if !ok {
			e = next
			next++
			index[p] = e
		}
		out[j] = e
	}
	m.routes = append(m.routes, make([]memoRoute, int(next)-len(m.routes))...)
	return out
}

// store records a claimed route and wakes the calls waiting for one.
func (m *routeMemo) store(slot int32, path []string, arcs []int32) {
	m.mu.Lock()
	r := &m.routes[slot]
	r.path, r.arcs, r.state = path, arcs, routeDone
	m.mu.Unlock()
	m.stored.Broadcast()
}

// routeFill is one call's pass over its pairs' memo entries.
type routeFill struct {
	m     *routeMemo
	n     *Network
	cost  routing.CostFunc
	k     int
	pairs []uint64       // sorted and distinct, packed destination first
	slots []int32        // each pair's memo entry
	g     *routing.Graph // opened by the first route the call computes
	held  []int          // the pairs (by position) claimed and not all routed yet
}

// fill leaves the entries of the sorted, distinct pairs done, routing
// those that are missing on one context grouped by destination, so that
// routes to one destination share its reverse tree.
//
// A first pass claims the missing pairs of each destination group up to
// the first pair another call has claimed, routes them, and leaves that
// pair and the rest of its group for later. Then the call routes every
// pair still missing, and waits while another call holds one. Two calls
// on one Network thus split the routing by destination. A call never
// waits while it holds a claim, and a call that panics gives its claims
// up, so no call waits forever.
func (m *routeMemo) fill(n *Network, cost routing.CostFunc, k int, pairs []uint64, slots []int32) {
	f := routeFill{m: m, n: n, cost: cost, k: k, pairs: pairs, slots: slots}
	defer f.finish()
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi]>>32 == pairs[lo]>>32 {
			hi++
		}
		m.mu.Lock()
		for j := lo; j < hi && m.routes[slots[j]].state != routeBusy; j++ {
			if r := &m.routes[slots[j]]; r.state == routeMissing {
				r.state = routeBusy
				f.held = append(f.held, j)
			}
		}
		m.mu.Unlock()
		f.routeHeld()
		lo = hi
	}
	m.mu.Lock()
	for {
		busy := false
		for j := range pairs {
			switch r := &m.routes[slots[j]]; r.state {
			case routeMissing:
				r.state = routeBusy
				f.held = append(f.held, j)
			case routeBusy:
				busy = true
			}
		}
		switch {
		case len(f.held) > 0:
			m.mu.Unlock()
			f.routeHeld()
			m.mu.Lock()
		case busy:
			m.stored.Wait()
		default:
			m.mu.Unlock()
			return
		}
	}
}

// routeHeld computes and stores the claimed routes, in pair order.
func (f *routeFill) routeHeld() {
	if len(f.held) == 0 {
		return
	}
	if f.g == nil {
		f.g = routing.NewGraph(f.n.Snap, f.cost)
	}
	ix := f.n.Snap.Index()
	for _, j := range f.held {
		p := f.pairs[j]
		path, arcs := widestOfK(f.n, f.g, ix.Nodes[uint32(p)].ID, ix.Nodes[p>>32].ID, f.k)
		f.m.store(f.slots[j], path, arcs)
	}
	f.held = f.held[:0]
}

// finish releases the routing context and, when routing panicked, gives
// up the claims not yet stored so that waiting calls route them.
func (f *routeFill) finish() {
	if f.g != nil {
		f.g.Release()
	}
	if len(f.held) == 0 {
		return
	}
	f.m.mu.Lock()
	for _, j := range f.held {
		if r := &f.m.routes[f.slots[j]]; r.state == routeBusy {
			r.state = routeMissing
		}
	}
	f.m.mu.Unlock()
	f.m.stored.Broadcast()
}
