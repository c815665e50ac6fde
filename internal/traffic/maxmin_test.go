package traffic

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/openspace-project/openspace/internal/topo"
)

// sharedBottleneck is two commodities squeezing through one 10-unit link.
func sharedBottleneck(t *testing.T) *Network {
	t.Helper()
	return NewNetwork(grid(t,
		[3]interface{}{"a", "m", 100}, [3]interface{}{"b", "m", 100},
		[3]interface{}{"m", "n", 10},
		[3]interface{}{"n", "c", 100}, [3]interface{}{"n", "d", 100},
	))
}

func TestMaxMinFairEqualSplit(t *testing.T) {
	n := sharedBottleneck(t)
	alloc, err := MaxMinFair(n, []Demand{
		{Src: "a", Dst: "c", OfferedBps: 8},
		{Src: "b", Dst: "d", OfferedBps: 8},
	}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range alloc.Demands {
		if math.Abs(d.RateBps-5) > 1e-6 {
			t.Errorf("demand %d rate = %v, want 5 (equal split of the 10-unit bottleneck)", i, d.RateBps)
		}
		if d.Bottleneck != (LinkID{"m", "n"}) {
			t.Errorf("demand %d bottleneck = %v, want m→n", i, d.Bottleneck)
		}
	}
	if u := alloc.Utilization(edgeAt(t, n, "m", "n")); math.Abs(u-1) > 1e-6 {
		t.Errorf("bottleneck utilisation = %v, want 1", u)
	}
	if j := alloc.JainIndex(); math.Abs(j-1) > 1e-9 {
		t.Errorf("Jain index = %v, want 1 for symmetric split", j)
	}
}

func TestMaxMinFairUnevenOffers(t *testing.T) {
	// The small ask is satisfied at 2; the big one takes the remaining 8 —
	// the defining water-filling outcome.
	n := sharedBottleneck(t)
	alloc, err := MaxMinFair(n, []Demand{
		{Src: "a", Dst: "c", OfferedBps: 2},
		{Src: "b", Dst: "d", OfferedBps: 20},
	}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := alloc.Demands[0]; !d.Satisfied() || math.Abs(d.RateBps-2) > 1e-6 {
		t.Errorf("small demand got %v, want its full 2", d.RateBps)
	}
	if d := alloc.Demands[1]; math.Abs(d.RateBps-8) > 1e-6 {
		t.Errorf("big demand got %v, want the residual 8", d.RateBps)
	}
	if got := alloc.CarriedBps(); math.Abs(got-10) > 1e-6 {
		t.Errorf("carried = %v, want 10", got)
	}
	if frac := alloc.SatisfiedFraction(); math.Abs(frac-10.0/22) > 1e-6 {
		t.Errorf("satisfied fraction = %v, want 10/22", frac)
	}
}

func TestMaxMinFairWidestOfK(t *testing.T) {
	// The shortest path is a 1-unit trickle; a slightly longer detour has
	// 100 units. KPaths=1 is stuck with the trickle, KPaths=2 finds the
	// detour.
	s, err := topo.NewSnapshot(0, []topo.Node{
		{ID: "s", Kind: topo.KindGroundStation},
		{ID: "m", Kind: topo.KindSatellite},
		{ID: "t", Kind: topo.KindGroundStation},
	}, []topo.Edge{
		{From: 0, To: 2, Kind: topo.LinkISLRF, DelayS: 0.001, CapacityBps: 1},    // s→t
		{From: 0, To: 1, Kind: topo.LinkGround, DelayS: 0.002, CapacityBps: 100}, // s→m
		{From: 1, To: 2, Kind: topo.LinkGround, DelayS: 0.002, CapacityBps: 100}, // m→t
	})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(s)
	demands := []Demand{{Src: "s", Dst: "t", OfferedBps: 50}}
	narrow, err := MaxMinFair(n, demands, AllocConfig{KPaths: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := narrow.Demands[0].RateBps; math.Abs(got-1) > 1e-6 {
		t.Errorf("k=1 rate = %v, want 1 (stuck on the direct trickle)", got)
	}
	wide, err := MaxMinFair(n, demands, AllocConfig{KPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.Demands[0].RateBps; math.Abs(got-50) > 1e-6 {
		t.Errorf("k=2 rate = %v, want the full 50 over the wide detour", got)
	}
}

func TestMaxMinFairUnroutableDemand(t *testing.T) {
	n := NewNetwork(grid(t, [3]interface{}{"a", "b", 10}))
	alloc, err := MaxMinFair(n, []Demand{
		{Src: "b", Dst: "a", OfferedBps: 5}, // no reverse edge
		{Src: "a", Dst: "b", OfferedBps: 5},
	}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := alloc.Demands[0]; d.Path != nil || d.RateBps != 0 {
		t.Errorf("unroutable demand allocated %v over %v", d.RateBps, d.Path)
	}
	if d := alloc.Demands[1]; math.Abs(d.RateBps-5) > 1e-6 {
		t.Errorf("routable demand got %v, want 5", d.RateBps)
	}
}

func TestMaxMinFairAccessLinksExcluded(t *testing.T) {
	// The only route via the user terminal is not transit-eligible under
	// the default cost.
	s, err := topo.NewSnapshot(0, []topo.Node{
		{ID: "g1", Kind: topo.KindGroundStation},
		{ID: "u", Kind: topo.KindUser},
		{ID: "g2", Kind: topo.KindGroundStation},
	}, []topo.Edge{
		{From: 0, To: 1, Kind: topo.LinkAccess, DelayS: 0.001, CapacityBps: 100}, // g1→u
		{From: 1, To: 2, Kind: topo.LinkAccess, DelayS: 0.001, CapacityBps: 100}, // u→g2
	})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := MaxMinFair(NewNetwork(s), []Demand{{Src: "g1", Dst: "g2", OfferedBps: 5}}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := alloc.Demands[0]; d.Path != nil {
		t.Errorf("transit allocated through a user terminal: %v", d.Path)
	}
}

func TestMaxMinFairErrors(t *testing.T) {
	n := NewNetwork(grid(t, [3]interface{}{"a", "b", 10}))
	if _, err := MaxMinFair(n, []Demand{{Src: "a", Dst: "z", OfferedBps: 1}}, AllocConfig{}); err == nil {
		t.Error("unknown node should fail")
	}
	for _, offer := range []float64{-1, math.NaN()} {
		_, err := MaxMinFair(n, []Demand{{Src: "a", Dst: "b", OfferedBps: offer}}, AllocConfig{})
		if err == nil || !strings.Contains(err.Error(), "a→b") {
			t.Errorf("offered load %v: error %v, want one naming a→b", offer, err)
		}
	}
}

// checkMaxMinProperty asserts the defining property of max-min fairness on
// fixed paths: every demand is either fully satisfied, unroutable, or
// frozen behind a saturated link on which no co-located demand holds a
// higher rate (so raising it would necessarily lower an equal-or-smaller
// rate).
func checkMaxMinProperty(t *testing.T, alloc *Allocation, n *Network) bool {
	t.Helper()
	const tol = 1e-6
	for i := range alloc.Demands {
		d := &alloc.Demands[i]
		if d.Path == nil || d.Satisfied() {
			continue
		}
		l := d.Bottleneck
		if l == (LinkID{}) {
			t.Logf("demand %d (%s→%s) unsatisfied at %v with no bottleneck", i, d.Src, d.Dst, d.RateBps)
			return false
		}
		if u := alloc.Utilization(edgeAt(t, n, l.From, l.To)); u < 1-tol {
			t.Logf("demand %d bottleneck %v not saturated (util %v)", i, l, u)
			return false
		}
		for j := range alloc.Demands {
			o := &alloc.Demands[j]
			if j == i || o.Path == nil {
				continue
			}
			crosses := false
			for h := 0; h+1 < len(o.Path); h++ {
				if (LinkID{o.Path[h], o.Path[h+1]}) == l {
					crosses = true
					break
				}
			}
			if crosses && o.RateBps > d.RateBps+tol*(1+d.RateBps) {
				t.Logf("demand %d rate %v exceeds demand %d rate %v on shared bottleneck %v",
					j, o.RateBps, i, d.RateBps, l)
				return false
			}
		}
	}
	return true
}

// arcsNamePath reports whether d.Arcs holds the edge of each hop of
// d.Path, in order, with no edge twice: the fill counts a demand once per
// position in its Arcs, so a repeated edge would skew the link's shares.
func arcsNamePath(n *Network, d *DemandAllocation) bool {
	if d.Path == nil {
		return d.Arcs == nil
	}
	if len(d.Arcs) != len(d.Path)-1 {
		return false
	}
	seen := map[int32]bool{}
	for h, j := range d.Arcs {
		if e := n.Snap.Index().Edges[j]; seen[j] || n.Snap.NodeAt(e.From).ID != d.Path[h] || n.Snap.NodeAt(e.To).ID != d.Path[h+1] {
			return false
		}
		seen[j] = true
	}
	return true
}

// TestMaxMinFairProperty drives the allocator over random networks and
// demand sets with testing/quick, checking feasibility (no link above
// capacity, no rate above its offer), that each routed demand's Arcs are
// the distinct edges of its Path, and the max-min property.
func TestMaxMinFairProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		ids := n.Snap.Nodes()
		var demands []Demand
		for d := 0; d < 2+rng.Intn(5); d++ {
			src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if src == dst {
				continue
			}
			demands = append(demands, Demand{Src: src, Dst: dst, OfferedBps: float64(1 + rng.Intn(50))})
		}
		alloc, err := MaxMinFair(n, demands, AllocConfig{KPaths: 1 + rng.Intn(3)})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		const tol = 1e-6
		for i := range alloc.Demands {
			d := &alloc.Demands[i]
			if !arcsNamePath(n, d) {
				t.Logf("seed %d: demand %d arcs %v do not name the distinct hops of %v", seed, i, d.Arcs, d.Path)
				return false
			}
			if d.RateBps < -tol || d.RateBps > d.OfferedBps+tol {
				t.Logf("seed %d: demand %d rate %v outside [0, %v]", seed, i, d.RateBps, d.OfferedBps)
				return false
			}
		}
		for j, e := range n.Snap.Edges() {
			if load := alloc.load[j]; load > n.CapacityBps(int32(j))*(1+1e-9)+tol {
				t.Logf("seed %d: link %s→%s load %v above capacity %v", seed, n.Snap.NodeAt(e.From).ID, n.Snap.NodeAt(e.To).ID, load, n.CapacityBps(int32(j)))
				return false
			}
		}
		return checkMaxMinProperty(t, alloc, n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocationEmptyDemands(t *testing.T) {
	n := NewNetwork(grid(t, [3]interface{}{"a", "b", 10}))
	alloc, err := MaxMinFair(n, nil, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.SatisfiedFraction() != 1 || alloc.JainIndex() != 1 {
		t.Error("empty allocation should be trivially satisfied and fair")
	}
	if _, u := alloc.MaxUtilization(); u != 0 {
		t.Errorf("empty allocation utilisation = %v, want 0", u)
	}
}

// TestMaxMinFairInfiniteOfferIsElastic checks that a +Inf offered load
// is a valid elastic demand: it takes its max-min share of the bottleneck.
func TestMaxMinFairInfiniteOfferIsElastic(t *testing.T) {
	alloc, err := MaxMinFair(sharedBottleneck(t), []Demand{
		{Src: "a", Dst: "c", OfferedBps: math.Inf(1)},
		{Src: "b", Dst: "d", OfferedBps: 8},
	}, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range alloc.Demands {
		if d.RateBps != 5 {
			t.Errorf("demand %d rate = %v, want 5 (equal split of the 10-unit bottleneck)", i, d.RateBps)
		}
	}
}
