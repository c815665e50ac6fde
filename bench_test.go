package openspace

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// BenchmarkExperiments regenerates every registered experiment at its
// -quick size, one sub-benchmark per experiments.Registry entry:
//
//	go test -bench 'Experiments/fig2b' -benchmem
//
// cmd/openspace-bench runs the full-size sweeps.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(true, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks on the hot substrate paths ---

// BenchmarkEngineQueue measures the event kernel on a churn-heavy schedule:
// a pre-seeded event population plus self-rescheduling ticks.
func BenchmarkEngineQueue(b *testing.B) {
	const events = 50_000
	rng := rand.New(rand.NewSource(7))
	times := make([]float64, events)
	for i := range times {
		times[i] = rng.Float64() * 3600
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		for _, at := range times {
			if err := e.Schedule(at, func(*sim.Engine) {}); err != nil {
				b.Fatal(err)
			}
		}
		var tick func(*sim.Engine)
		tick = func(e *sim.Engine) {
			if next := e.Now() + 15; next < 3600 {
				if err := e.Schedule(next, tick); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := e.Schedule(0, tick); err != nil {
			b.Fatal(err)
		}
		e.Run(3600)
		if e.Processed < events {
			b.Fatalf("processed %d of %d events", e.Processed, events)
		}
	}
}

// BenchmarkPropagation measures two-body position computation, the inner
// loop of every topology build.
func BenchmarkPropagation(b *testing.B) {
	e := orbit.Circular(780, 86.4, 30, 45)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.PositionECEF(float64(i % 6000))
	}
}

// BenchmarkCoverage measures one exact-union coverage scan on a prebuilt
// grid: fig2c is one Figure 2(c) trial (100 random satellites at 780 km,
// 4 000 points), fig2a the Iridium constellation's 66 footprints at a
// 10° mask on 10 000 points.
func BenchmarkCoverage(b *testing.B) {
	iridium, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		grid int
		caps []geo.Cap
	}{
		{"fig2c", 4000, orbit.RandomCircular(100, 780, rand.New(rand.NewSource(1))).Footprints(0, 0)},
		{"fig2a", 10000, iridium.Footprints(0, 10)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := geo.NewCoverageGrid(bc.grid)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Fraction(bc.caps)
			}
		})
	}
}

// BenchmarkSnapshotBuild measures one-shot topology snapshots: the
// 66-satellite Iridium shell with a station and a user, and fig2b's shape,
// 100 random circular satellites at 780 km whose 10⁹ km ISL range puts
// every pair in range, so the geometric wiring checks all of them.
func BenchmarkSnapshotBuild(b *testing.B) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	random := orbit.RandomCircular(100, 780, rand.New(rand.NewSource(1)))
	fig2b := topo.DefaultConfig()
	fig2b.ISLRangeKm = 1e9
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	for _, bc := range []struct {
		name string
		c    *orbit.Constellation
		cfg  topo.Config
	}{
		{"iridium", c, topo.DefaultConfig()},
		{"fig2b", random, fig2b},
	} {
		b.Run(bc.name, func(b *testing.B) {
			specs := make([]topo.SatSpec, bc.c.Len())
			for i, s := range bc.c.Satellites {
				specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = topo.Build(float64(i), bc.cfg, specs, grounds, users)
			}
		})
	}
}

// gridBuildInputs assembles the mega-constellation snapshot inputs: an
// as-square Walker Delta with +Grid laser wiring, one gateway, one user.
func gridBuildInputs(tb testing.TB, n int) (topo.Config, []topo.SatSpec, []topo.GroundSpec, []topo.UserSpec) {
	tb.Helper()
	w, err := orbit.SquareWalkerDelta(n, 550, 53)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := topo.DefaultConfig()
	if cfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		tb.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: true}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	return cfg, specs, grounds, users
}

// BenchmarkSnapshotBuildGrid measures one +Grid mega-constellation snapshot
// at the scaling gate's two sizes. With the spatial index the per-snapshot
// cost is near-linear in N; the CI scaling-gate job asserts that ratio.
func BenchmarkSnapshotBuildGrid(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg, specs, grounds, users := gridBuildInputs(b, n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = topo.Build(float64(i), cfg, specs, grounds, users)
			}
		})
	}
}

// BenchmarkTimeExpanded measures a 31-step +Grid N=500 time-expanded
// build on one worker: each block of steps shares one builder's node
// template and scratch, and every step queries a fresh spatial index.
func BenchmarkTimeExpanded(b *testing.B) {
	cfg, specs, grounds, users := gridBuildInputs(b, 500)
	cfg.Workers = 1 // isolate the per-step build from fan-out speedup
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topo.BuildTimeExpanded(0, 30*60, 60, cfg, specs, grounds, users); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlay measures one fault mask applied to every snapshot of a
// 30-step +Grid N=500 series: the degraded views a per-flow scenario
// builds, one per snapshot it reads after each fault transition. The mask
// is the ×8 default fault environment sampled mid-horizon, so it downs
// both satellites and ISLs.
func BenchmarkOverlay(b *testing.B) {
	cfg, specs, grounds, users := gridBuildInputs(b, 500)
	te, err := topo.BuildTimeExpanded(0, 30*60, 60, cfg, specs, grounds, users)
	if err != nil {
		b.Fatal(err)
	}
	tl, err := faults.Generate(faults.Default().Scale(8), 30*60, faults.InputsFromSnapshot(te.Snaps[0]))
	if err != nil {
		b.Fatal(err)
	}
	m := tl.MaskAt(15 * 60)
	if nodes, links := m.Down(); nodes == 0 || links == 0 {
		b.Fatalf("mask downs %d nodes and %d links; want some of each", nodes, links)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range te.Snaps {
			_ = s.Overlay(m)
		}
	}
}

// BenchmarkDijkstra measures one shortest-path query on the full snapshot.
func BenchmarkDijkstra(b *testing.B) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	snap := topo.Build(0, topo.DefaultConfig(), specs, grounds, users)
	cost := routing.LatencyCost(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := routing.ShortestPath(snap, "u", "gs", cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKShortestPaths measures one Yen k=8 query gateway to gateway
// over +Grid mega-constellation snapshots, the per-demand routing step of
// traffic.MaxMinFair in the capacity-scale sweep. grid-2000-hop counts
// hops, so equal-cost paths are everywhere.
func BenchmarkKShortestPaths(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		cost routing.CostFunc
	}{
		{"grid-1000", 1000, traffic.GatewayTransitCost()},
		{"grid-2000", 2000, traffic.GatewayTransitCost()},
		{"grid-2000-hop", 2000, routing.HopCost()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg, specs, _, _ := gridBuildInputs(b, bc.n)
			grounds := []topo.GroundSpec{
				{ID: "gs-seattle", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
				{ID: "gs-nairobi", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
			}
			snap := topo.Build(0, cfg, specs, grounds, nil)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paths, err := routing.KShortestPaths(snap, "gs-seattle", "gs-nairobi", bc.cost, 8)
				if err != nil || len(paths) != 8 {
					b.Fatalf("got %d paths, err %v; want 8", len(paths), err)
				}
			}
		})
	}
}

// iridiumTrafficNetwork builds the Iridium snapshot with two gateways and
// phy-derived capacities: the constellation-scale input for the flow
// benchmarks.
func iridiumTrafficNetwork(b *testing.B, extra ...topo.GroundSpec) *traffic.Network {
	b.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: i%2 == 0}
	}
	grounds := []topo.GroundSpec{
		{ID: "gs-seattle", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
		{ID: "gs-nairobi", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
	}
	snap := topo.Build(0, topo.DefaultConfig(), specs, append(grounds, extra...), nil)
	net := traffic.NewNetwork(snap)
	net.Recapacitate(traffic.DefaultCapacityModel())
	return net
}

// smallTrafficNetwork is the hand-sized diamond used to measure solver
// overhead away from graph-size effects.
func smallTrafficNetwork(b *testing.B) *traffic.Network {
	b.Helper()
	nodes := []topo.Node{
		{ID: "s", Kind: topo.KindGroundStation}, {ID: "a", Kind: topo.KindSatellite},
		{ID: "b", Kind: topo.KindSatellite}, {ID: "t", Kind: topo.KindGroundStation},
	}
	at := map[string]int32{"s": 0, "a": 1, "b": 2, "t": 3} // positions in nodes
	var edges []topo.Edge
	for _, e := range [][2]string{{"s", "a"}, {"s", "b"}, {"a", "b"}, {"a", "t"}, {"b", "t"}} {
		edges = append(edges, topo.Edge{
			From: at[e[0]], To: at[e[1]], Kind: topo.LinkISLRF,
			DistanceKm: 1000, DelayS: 0.003, CapacityBps: 10e9,
		})
	}
	snap, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		b.Fatal(err)
	}
	return traffic.NewNetwork(snap)
}

// BenchmarkMaxFlow measures one Dinic max-flow + min-cut solve.
func BenchmarkMaxFlow(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		net := smallTrafficNetwork(b)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := traffic.MaxFlow(net, "s", "t"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iridium", func(b *testing.B) {
		net := iridiumTrafficNetwork(b)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := traffic.MaxFlow(net, "gs-seattle", "gs-nairobi"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDemandMatrix measures one capacity-mega trial's demand matrix:
// 300 city users over the eight most populous cities' gateways, lit by a
// +Grid N=2000 shell at 550 km / 53° within a 1 s window.
func BenchmarkDemandMatrix(b *testing.B) {
	w, err := orbit.SquareWalkerDelta(2000, 550, 53)
	if err != nil {
		b.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	gws := traffic.TopCityGateways(8)
	users := sim.CityUsers(300, 30, rand.New(rand.NewSource(1)))
	cfg := traffic.DefaultDemandConfig()
	cfg.WindowS = 1
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := traffic.BuildDemandMatrix(gws, c.Satellites, users, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Demands) == 0 {
			b.Fatal("no demands")
		}
	}
}

// BenchmarkMaxMinFair measures one progressive-filling allocation on a
// fresh Network, routing included: a Network memoises its routes, so
// every iteration gets a new one, capacitated like the original, with the
// timer stopped.
func BenchmarkMaxMinFair(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		snap := smallTrafficNetwork(b).Snap
		demands := []traffic.Demand{
			{Src: "s", Dst: "t", OfferedBps: 8e9},
			{Src: "a", Dst: "t", OfferedBps: 8e9},
		}
		benchMaxMinFair(b, func() *traffic.Network { return traffic.NewNetwork(snap) }, demands, 2)
	})
	b.Run("iridium", func(b *testing.B) {
		net := iridiumTrafficNetwork(b)
		demands := []traffic.Demand{
			{Src: "gs-seattle", Dst: "gs-nairobi", OfferedBps: 2e9},
			{Src: "gs-nairobi", Dst: "gs-seattle", OfferedBps: 1e9},
		}
		benchMaxMinFair(b, recapacitated(net.Snap), demands, 4)
	})
	// A fluid epoch's shape: every ordered gateway pair offered under three
	// traffic classes, the classes interleaved so a pair's repeats are not
	// adjacent. Each pair is routed once per call.
	b.Run("iridium-classes", func(b *testing.B) {
		net := iridiumTrafficNetwork(b,
			topo.GroundSpec{ID: "gs-london", Provider: "p", Pos: geo.LatLon{Lat: 51.5, Lon: -0.1}},
			topo.GroundSpec{ID: "gs-sydney", Provider: "p", Pos: geo.LatLon{Lat: -33.9, Lon: 151.2}},
			topo.GroundSpec{ID: "gs-santiago", Provider: "p", Pos: geo.LatLon{Lat: -33.4, Lon: -70.6}},
			topo.GroundSpec{ID: "gs-tokyo", Provider: "p", Pos: geo.LatLon{Lat: 35.7, Lon: 139.7}},
		)
		gws := []string{"gs-london", "gs-nairobi", "gs-santiago", "gs-seattle", "gs-sydney", "gs-tokyo"}
		var demands []traffic.Demand
		for class := 1; class <= 3; class++ {
			for _, src := range gws {
				for _, dst := range gws {
					if src != dst {
						demands = append(demands, traffic.Demand{Src: src, Dst: dst, OfferedBps: float64(class) * 1e8})
					}
				}
			}
		}
		benchMaxMinFair(b, recapacitated(net.Snap), demands, 4)
	})
	// capacity-mega's shape: a +Grid N=2000 shell, every ordered pair of
	// the eight most populous cities' gateways, Yen k=8 under the default
	// gateway-transit cost. Each destination is routed from seven sources
	// in one call.
	b.Run("grid-2000", func(b *testing.B) {
		cfg, specs, _, _ := gridBuildInputs(b, 2000)
		gws := traffic.TopCityGateways(8)
		grounds := make([]topo.GroundSpec, len(gws))
		for i, g := range gws {
			grounds[i] = topo.GroundSpec{ID: g.ID, Provider: "p", Pos: g.Pos}
		}
		snap := topo.Build(0, cfg, specs, grounds, nil)
		var demands []traffic.Demand
		for _, src := range gws {
			for _, dst := range gws {
				if src != dst {
					demands = append(demands, traffic.Demand{Src: src.ID, Dst: dst.ID, OfferedBps: 1e9})
				}
			}
		}
		benchMaxMinFair(b, recapacitated(snap), demands, 8)
	})
}

// recapacitated returns a maker of fresh Networks on the snapshot under
// the default capacity model.
func recapacitated(snap *topo.Snapshot) func() *traffic.Network {
	return func() *traffic.Network {
		n := traffic.NewNetwork(snap)
		n.Recapacitate(traffic.DefaultCapacityModel())
		return n
	}
}

// benchMaxMinFair times MaxMinFair at k on a fresh Network per iteration.
func benchMaxMinFair(b *testing.B, fresh func() *traffic.Network, demands []traffic.Demand, k int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := fresh()
		b.StartTimer()
		alloc, err := traffic.MaxMinFair(net, demands, traffic.AllocConfig{KPaths: k})
		if err != nil {
			b.Fatal(err)
		}
		if alloc.CarriedBps() <= 0 {
			b.Fatal("no demand was carried")
		}
	}
}

// BenchmarkEndToEndSend measures one associated transfer through a
// federation: Send to a fixed gateway, and SendBest, which ranks every
// gateway first and sends to the best.
func BenchmarkEndToEndSend(b *testing.B) {
	federation := func(b *testing.B) *Network {
		net, err := QuickFederation(3, 42)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.AddUser("alice", "prov-0", LatLon{Lat: -1.29, Lon: 36.82}); err != nil {
			b.Fatal(err)
		}
		if err := net.BuildTopology(0, 60, 60); err != nil {
			b.Fatal(err)
		}
		if err := net.Associate("alice", 0); err != nil {
			b.Fatal(err)
		}
		return net
	}
	b.Run("send", func(b *testing.B) {
		net := federation(b)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := net.Send("alice", "gs-0", 1000, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sendbest", func(b *testing.B) {
		net := federation(b)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := net.SendBest("alice", 1000, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
