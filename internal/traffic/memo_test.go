package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// perDemandMaxMinFair is MaxMinFair with every demand routed on its own:
// one KShortestPaths and one widest-of-k choice per demand, repeated pairs
// included. It is the oracle of the pair memo in prepareFill.
func perDemandMaxMinFair(n *Network, demands []Demand, cfg AllocConfig) (*Allocation, error) {
	k := max(cfg.KPaths, 1)
	cost := cfg.Cost
	if cost == nil {
		cost = GatewayTransitCost()
	}
	ix := n.Snap.Index()
	alloc := &Allocation{Demands: make([]DemandAllocation, len(demands)), net: n, load: make([]float64, len(ix.Edges))}
	st := &fillState{
		eps: n.eps(), ix: ix, linkCap: n.caps, linkLoad: alloc.load,
		linkUsers: make([]int32, len(ix.Edges)), active: make([]bool, len(demands)),
	}
	for i, d := range demands {
		alloc.Demands[i] = DemandAllocation{Demand: d}
		if !(d.OfferedBps >= 0) {
			return nil, fmt.Errorf("traffic: demand %s→%s has offered load %v, want ≥ 0", d.Src, d.Dst, d.OfferedBps)
		}
		if n.Snap.Node(d.Src) == nil || n.Snap.Node(d.Dst) == nil {
			return nil, fmt.Errorf("traffic: demand %s→%s references unknown node", d.Src, d.Dst)
		}
		paths, err := routing.KShortestPaths(n.Snap, d.Src, d.Dst, cost, k)
		if err != nil || len(paths) == 0 {
			continue
		}
		best, bestCap := -1, -1.0
		for pi, p := range paths {
			if c := pathBottleneckBps(n, p.Arcs); c > bestCap {
				best, bestCap = pi, c
			}
		}
		if bestCap <= 0 {
			continue
		}
		alloc.Demands[i].Path, alloc.Demands[i].Arcs = paths[best].Nodes, paths[best].Arcs
		if d.OfferedBps > 0 {
			st.active[i] = true
			st.nActive++
			for _, li := range paths[best].Arcs {
				st.linkUsers[li]++
			}
		}
	}
	st.run(alloc.Demands)
	return alloc, nil
}

// memoGateways are the gateways of the differential test's networks.
// "gs-island" is added with no link at all, and every link of "gs-dead"
// gets zero capacity, so the demand sets always hold unroutable pairs and
// pairs routable only over zero-capacity links.
var memoGateways = []topo.GroundSpec{
	{ID: "gs-seattle", Provider: "p0", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
	{ID: "gs-nairobi", Provider: "p1", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
	{ID: "gs-london", Provider: "p0", Pos: geo.LatLon{Lat: 51.5, Lon: -0.1}},
	{ID: "gs-sydney", Provider: "p1", Pos: geo.LatLon{Lat: -33.9, Lon: 151.2}},
	{ID: "gs-santiago", Provider: "p0", Pos: geo.LatLon{Lat: -33.4, Lon: -70.6}},
	{ID: "gs-tokyo", Provider: "p1", Pos: geo.LatLon{Lat: 35.7, Lon: 139.7}},
	{ID: "gs-dead", Provider: "p0", Pos: geo.LatLon{Lat: 19.4, Lon: -99.1}},
}

// memoNetwork builds the walker shell at t=0 with the memo gateways and a
// user, wired by the +Grid plan when grid is set and by the geometric
// rule otherwise, under the phy capacity model.
func memoNetwork(t *testing.T, w orbit.WalkerConfig, grid bool) *Network {
	t.Helper()
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := topo.DefaultConfig()
	if grid {
		if cfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
			t.Fatal(err)
		}
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: fmt.Sprintf("p%d", i%2), Elements: s.Elements, HasLaser: i%3 != 0}
	}
	users := []topo.UserSpec{{ID: "u-cairo", Provider: "p0", Pos: geo.LatLon{Lat: 30.0, Lon: 31.2}}}
	built := topo.Build(0, cfg, specs, memoGateways, users)
	nodes := append(slices.Clone(built.Index().Nodes), topo.Node{ID: "gs-island", Kind: topo.KindGroundStation, Provider: "p1"})
	s, err := topo.NewSnapshot(0, nodes, built.Edges())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(s)
	n.Recapacitate(DefaultCapacityModel())
	dead := 0
	for j, e := range s.Edges() {
		if s.NodeAt(e.From).ID == "gs-dead" || s.NodeAt(e.To).ID == "gs-dead" {
			n.caps[j] = 0
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("gs-dead sees no satellite; move it")
	}
	return n
}

// memoDemands draws a demand set over a few distinct pairs, each offered
// several times in shuffled, mostly non-adjacent order, some at 0 bps. It
// always includes an unroutable pair, a zero-capacity pair and a
// coincident pair.
func memoDemands(rng *rand.Rand) []Demand {
	ends := []string{"gs-seattle", "gs-nairobi", "gs-london", "gs-sydney", "gs-santiago", "gs-tokyo", "u-cairo"}
	pairs := [][2]string{{"gs-seattle", "gs-island"}, {"gs-dead", "gs-london"}, {"gs-tokyo", "gs-tokyo"}}
	for len(pairs) < 8 {
		pairs = append(pairs, [2]string{ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]})
	}
	var demands []Demand
	for _, p := range pairs {
		for r := 1 + rng.Intn(4); r > 0; r-- {
			offer := 0.0
			if rng.Intn(5) > 0 {
				offer = rng.Float64() * 20e9
			}
			demands = append(demands, Demand{Src: p[0], Dst: p[1], OfferedBps: offer})
		}
	}
	rng.Shuffle(len(demands), func(i, j int) { demands[i], demands[j] = demands[j], demands[i] })
	return demands
}

// TestMaxMinFairMemoMatchesPerDemand is the differential test of routing
// each distinct (src, dst) once: on +Grid and Iridium, under both path
// costs and several k, the allocation must equal the per-demand oracle's
// in every demand and on every link, and repeated pairs must share one
// route.
func TestMaxMinFairMemoMatchesPerDemand(t *testing.T) {
	nets := []struct {
		name string
		net  *Network
	}{
		{"grid", memoNetwork(t, mustWalker(t, 144), true)},
		{"iridium", memoNetwork(t, orbit.Iridium(), false)},
	}
	costs := []struct {
		name string
		cost routing.CostFunc
	}{
		{"transit", GatewayTransitCost()},
		{"latency", routing.LatencyCost(0)},
	}
	for _, nc := range nets {
		for _, cc := range costs {
			var routed, unrouted, shared, frozen int
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				demands := memoDemands(rng)
				cfg := AllocConfig{KPaths: 1 + rng.Intn(4), Cost: cc.cost}
				got, err := MaxMinFair(nc.net, demands, cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", nc.name, cc.name, seed, err)
				}
				want, err := perDemandMaxMinFair(nc.net, demands, cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %d: oracle: %v", nc.name, cc.name, seed, err)
				}
				if !reflect.DeepEqual(got.Demands, want.Demands) {
					for i := range got.Demands {
						if !reflect.DeepEqual(got.Demands[i], want.Demands[i]) {
							t.Fatalf("%s/%s seed %d demand %d:\n got %+v\nwant %+v", nc.name, cc.name, seed, i, got.Demands[i], want.Demands[i])
						}
					}
				}
				for j := range nc.net.Snap.Edges() {
					if g, w := got.Utilization(int32(j)), want.Utilization(int32(j)); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s/%s seed %d edge %d: utilisation %v, oracle %v", nc.name, cc.name, seed, j, g, w)
					}
				}
				firstArcs := map[[2]string][]int32{}
				for i := range got.Demands {
					d := &got.Demands[i]
					if d.Path == nil {
						unrouted++
						continue
					}
					routed++
					if d.Bottleneck != (LinkID{}) {
						frozen++
					}
					key := [2]string{d.Src, d.Dst}
					if a, ok := firstArcs[key]; !ok {
						firstArcs[key] = d.Arcs
					} else if &a[0] != &d.Arcs[0] {
						t.Fatalf("%s/%s seed %d: demands of %s→%s hold separate routes", nc.name, cc.name, seed, d.Src, d.Dst)
					} else {
						shared++
					}
				}
			}
			if routed == 0 || unrouted == 0 || shared == 0 || frozen == 0 {
				t.Fatalf("%s/%s: %d routed, %d unrouted, %d sharing and %d link-frozen demands; the sets must exercise all four",
					nc.name, cc.name, routed, unrouted, shared, frozen)
			}
		}
	}
}

// TestMaxMinFairMemoErrors checks that a bad demand after a repeated pair
// fails as it did before the memo: with the same text as the oracle's.
func TestMaxMinFairMemoErrors(t *testing.T) {
	n := memoNetwork(t, orbit.Iridium(), false)
	ok := []Demand{
		{Src: "gs-seattle", Dst: "gs-london", OfferedBps: 1e9},
		{Src: "gs-tokyo", Dst: "gs-sydney", OfferedBps: 1e9},
		{Src: "gs-seattle", Dst: "gs-london", OfferedBps: 2e9},
	}
	for _, tc := range []struct {
		bad  Demand
		want string
	}{
		{Demand{Src: "gs-seattle", Dst: "gs-nowhere", OfferedBps: 1}, "traffic: demand gs-seattle→gs-nowhere references unknown node"},
		{Demand{Src: "gs-nowhere", Dst: "gs-london", OfferedBps: 1}, "traffic: demand gs-nowhere→gs-london references unknown node"},
		{Demand{Src: "gs-seattle", Dst: "gs-london", OfferedBps: -1}, "traffic: demand gs-seattle→gs-london has offered load -1, want ≥ 0"},
		{Demand{Src: "gs-tokyo", Dst: "gs-sydney", OfferedBps: math.NaN()}, "traffic: demand gs-tokyo→gs-sydney has offered load NaN, want ≥ 0"},
	} {
		demands := append(slices.Clone(ok), tc.bad)
		_, err := MaxMinFair(n, demands, AllocConfig{KPaths: 2})
		_, oracleErr := perDemandMaxMinFair(n, demands, AllocConfig{KPaths: 2})
		if err == nil || oracleErr == nil || err.Error() != tc.want || oracleErr.Error() != tc.want {
			t.Errorf("%+v: error %v, oracle %v, want %q", tc.bad, err, oracleErr, tc.want)
		}
	}
}

// mustWalker returns an n-satellite square Walker Delta at 550 km, 53°.
func mustWalker(t *testing.T, n int) orbit.WalkerConfig {
	t.Helper()
	w, err := orbit.SquareWalkerDelta(n, 550, 53)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSharedNetworkRoutesMatchFresh holds the Network's route memo to
// fresh Networks: four goroutines allocate overlapping demand sets at k ∈
// {1, 4, 8} on one shared +Grid Network, each in its own order, so that
// their calls claim, defer and wait on each other's pairs. Every
// allocation must equal the same call on a fresh Network, and so must
// every allocation after the shared Network is recapacitated under
// another model.
func TestSharedNetworkRoutesMatchFresh(t *testing.T) {
	w := mustWalker(t, 144)
	fresh := func(model *CapacityModel) *Network {
		n := memoNetwork(t, w, true)
		if model != nil {
			n.Recapacitate(*model)
		}
		return n
	}
	slowLaser := DefaultCapacityModel()
	slowLaser.Laser.DataRateBps = 1e6 // below the RF links, so the widest routes move
	rng := rand.New(rand.NewSource(1))
	type allocCase struct {
		demands []Demand
		cfg     AllocConfig
	}
	cases := make([]allocCase, 12)
	for c := range cases {
		cases[c] = allocCase{memoDemands(rng), AllocConfig{KPaths: []int{1, 4, 8}[c%3]}}
	}
	shared := fresh(nil)
	var prev []*Allocation
	for phase, model := range []*CapacityModel{nil, &slowLaser} {
		if model != nil {
			shared.Recapacitate(*model)
		}
		want := make([]*Allocation, len(cases))
		moved := 0
		for c, tc := range cases {
			var err error
			if want[c], err = MaxMinFair(fresh(model), tc.demands, tc.cfg); err != nil {
				t.Fatal(err)
			}
			for i := range want[c].Demands {
				if prev != nil && !slices.Equal(want[c].Demands[i].Path, prev[c].Demands[i].Path) {
					moved++
				}
			}
		}
		if prev != nil && moved == 0 {
			t.Fatal("the second model moves no route, so the recapacitated memo goes untested")
		}
		prev = want
		const workers = 4
		got := make([][]*Allocation, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for g := range workers {
			got[g] = make([]*Allocation, len(cases))
			order := rand.New(rand.NewSource(int64(g))).Perm(len(cases))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, c := range order {
					if got[g][c], errs[g] = MaxMinFair(shared, cases[c].demands, cases[c].cfg); errs[g] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for g := range workers {
			if errs[g] != nil {
				t.Fatalf("phase %d goroutine %d: %v", phase, g, errs[g])
			}
			for c, a := range got[g] {
				if !reflect.DeepEqual(a.Demands, want[c].Demands) || !reflect.DeepEqual(a.load, want[c].load) {
					t.Fatalf("phase %d goroutine %d case %d (k=%d): the shared Network's allocation differs from a fresh one's",
						phase, g, c, cases[c].cfg.KPaths)
				}
			}
		}
	}
}

// TestSharedNetworkWaitsForClaimedPair drives the memo's hand-off without
// relying on timing: the test claims one pair, standing in for another
// call. A MaxMinFair call that needs it must route the rest, including
// the claimed pair's destination-mate that the first pass leaves for
// later, then wait; once the test stores the claimed route, the call must
// return the same allocation as a fresh Network.
func TestSharedNetworkWaitsForClaimedPair(t *testing.T) {
	w := mustWalker(t, 144)
	shared := memoNetwork(t, w, true)
	cfg := AllocConfig{KPaths: 4}
	demands := []Demand{
		{Src: "gs-tokyo", Dst: "gs-london", OfferedBps: 5e9},
		{Src: "gs-seattle", Dst: "gs-london", OfferedBps: 5e9},
		{Src: "gs-sydney", Dst: "gs-nairobi", OfferedBps: 5e9},
	}
	want, err := MaxMinFair(memoNetwork(t, w, true), demands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := shared.Snap.Index()
	pairs := make([]uint64, len(demands))
	for i, d := range demands {
		si, _ := ix.Lookup(d.Src)
		di, _ := ix.Lookup(d.Dst)
		pairs[i] = uint64(di)<<32 | uint64(si)
	}
	// gs-seattle sorts before gs-tokyo, so the claimed pair comes first
	// in gs-london's group and the first pass leaves tokyo's for later.
	if !(pairs[1] < pairs[0]) {
		t.Fatal("the claimed pair must be first in its destination group")
	}
	m := &shared.routes
	slots := m.slots(cfg.KPaths, pairs)
	m.mu.Lock()
	m.routes[slots[1]].state = routeBusy
	m.mu.Unlock()

	got := make(chan *Allocation, 1)
	go func() {
		a, err := MaxMinFair(shared, demands, cfg)
		if err != nil {
			t.Error(err)
		}
		got <- a
	}()
	m.mu.Lock()
	for m.routes[slots[0]].state != routeDone || m.routes[slots[2]].state != routeDone {
		m.stored.Wait()
	}
	if m.routes[slots[1]].state != routeBusy {
		t.Error("the call routed a pair another call had claimed")
	}
	m.mu.Unlock()
	select {
	case <-got:
		t.Fatal("the call returned before the claimed pair was stored")
	default:
	}
	g := routing.NewGraph(shared.Snap, GatewayTransitCost())
	path, arcs := widestOfK(shared, g, "gs-seattle", "gs-london", cfg.KPaths)
	g.Release()
	m.store(slots[1], path, arcs)
	a := <-got
	if a == nil || !reflect.DeepEqual(a.Demands, want.Demands) || !reflect.DeepEqual(a.load, want.load) {
		t.Fatal("the allocation after the hand-off differs from a fresh Network's")
	}
}
