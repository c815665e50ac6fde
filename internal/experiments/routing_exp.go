package experiments

import (
	"fmt"
	"io"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// RoutingAblationConfig parameterises the proactive-vs-on-demand routing
// comparison (§2.2's two regimes). A batch of flows between city users and
// two gateways is admitted either blindly on precomputed shortest paths
// (proactive — sound only while the network is lightly loaded) or
// sequentially with live congestion state (on-demand).
type RoutingAblationConfig struct {
	Flows   int
	FlowBps float64
	Users   int
	Seed    int64
	Workers int // parallel path-computation workers; ≤0 = one per CPU
}

// DefaultRoutingAblation loads the network well past any single link's
// capacity so the regimes separate.
func DefaultRoutingAblation() RoutingAblationConfig {
	return RoutingAblationConfig{Flows: 120, FlowBps: 4e6, Users: 8, Seed: 10}
}

// RoutingAblationResult compares the regimes on the same flow set.
type RoutingAblationResult struct {
	// Proactive: all flows take the load-blind shortest path.
	ProactiveOverloadedEdges int     // directed edges pushed past capacity
	ProactiveMaxUtilization  float64 // highest edge load factor (can exceed 1)
	ProactiveMeanDelayMs     float64
	// OnDemand: flows admitted sequentially with live load.
	OnDemandAdmitted       int
	OnDemandRejected       int
	OnDemandMaxUtilization float64 // ≤ 1 by construction
	OnDemandMeanDelayMs    float64
}

// RoutingAblation runs both regimes over one Iridium snapshot.
func RoutingAblation(cfg RoutingAblationConfig) (*RoutingAblationResult, error) {
	if cfg.Flows <= 0 || cfg.FlowBps <= 0 || cfg.Users <= 0 {
		return nil, fmt.Errorf("experiments: routing ablation: bad config")
	}
	c, err := orbit.Iridium().Build()
	if err != nil {
		return nil, err
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	rng := exec.RNG(cfg.Seed)
	positions := sim.CityUsers(cfg.Users, 30, rng)
	users := make([]topo.UserSpec, cfg.Users)
	userIDs := make([]string, cfg.Users)
	for i, pos := range positions {
		userIDs[i] = fmt.Sprintf("u%d", i)
		users[i] = topo.UserSpec{ID: userIDs[i], Provider: "p", Pos: pos}
	}
	grounds := []topo.GroundSpec{
		{ID: "gs-a", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
		{ID: "gs-b", Provider: "p", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}},
	}
	snap := topo.Build(0, topo.DefaultConfig(), sats, grounds, users)
	stations := []string{"gs-a", "gs-b"}

	// The flow list is shared by both regimes.
	type flow struct {
		src, dst string
	}
	flows := make([]flow, cfg.Flows)
	for i := range flows {
		flows[i] = flow{src: userIDs[rng.Intn(len(userIDs))], dst: stations[rng.Intn(len(stations))]}
	}

	res := &RoutingAblationResult{}

	// Proactive: load-blind shortest paths. Path computation is a
	// read-only query per flow, so it fans out on the exec pool; load
	// commits then replay in flow order to keep the tally deterministic.
	type proOut struct {
		ok   bool
		path routing.Path
	}
	proOuts, err := exec.Map(cfg.Workers, len(flows), func(i int) (proOut, error) {
		p, err := routing.ShortestPath(snap, flows[i].src, flows[i].dst, routing.LatencyCost(0))
		if err != nil {
			return proOut{}, nil // unreachable flow — part of the measurement
		}
		return proOut{ok: true, path: p}, nil
	})
	if err != nil {
		return nil, err
	}
	proactiveLoad := routing.NewEdgeLoad(snap)
	var proDelay sim.Histogram
	proPaths := 0
	for _, out := range proOuts {
		if !out.ok {
			continue
		}
		proPaths++
		proDelay.Add(out.path.DelayS * 1000)
		proactiveLoad.Commit(out.path, cfg.FlowBps)
	}
	for _, e := range snap.Edges() {
		u := proactiveLoad.Utilization(snap.NodeAt(e.From).ID, snap.NodeAt(e.To).ID)
		if u > res.ProactiveMaxUtilization {
			res.ProactiveMaxUtilization = u
		}
		if u >= 1 {
			res.ProactiveOverloadedEdges++
		}
	}
	res.ProactiveMeanDelayMs = proDelay.Mean()

	// On-demand: sequential admission with live congestion.
	router := routing.NewOnDemandRouter(snap, routing.DefaultQoS())
	var odDelay sim.Histogram
	for _, fl := range flows {
		p, err := router.Admit(fl.src, fl.dst, cfg.FlowBps)
		if err != nil {
			res.OnDemandRejected++
			continue
		}
		res.OnDemandAdmitted++
		odDelay.Add(p.DelayS * 1000)
	}
	for _, e := range snap.Edges() {
		if u := router.Load().Utilization(snap.NodeAt(e.From).ID, snap.NodeAt(e.To).ID); u > res.OnDemandMaxUtilization {
			res.OnDemandMaxUtilization = u
		}
	}
	res.OnDemandMeanDelayMs = odDelay.Mean()
	return res, nil
}

// CSV writes the comparison.
func (r *RoutingAblationResult) CSV(w io.Writer) error {
	rows := [][]string{
		{"proactive", d(r.ProactiveOverloadedEdges), f(r.ProactiveMaxUtilization), f(r.ProactiveMeanDelayMs), "-", "-"},
		{"ondemand", "0", f(r.OnDemandMaxUtilization), f(r.OnDemandMeanDelayMs),
			d(r.OnDemandAdmitted), d(r.OnDemandRejected)},
	}
	return WriteCSV(w, []string{"regime", "overloaded_edges", "max_utilization",
		"mean_delay_ms", "admitted", "rejected"}, rows)
}

// Render prints the comparison.
func (r *RoutingAblationResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Routing ablation: proactive (load-blind) vs on-demand (§2.2's two regimes)")
	fmt.Fprintf(w, "  proactive: %d overloaded edges, max utilization %.2f, mean delay %.1f ms\n",
		r.ProactiveOverloadedEdges, r.ProactiveMaxUtilization, r.ProactiveMeanDelayMs)
	fmt.Fprintf(w, "  on-demand: %d/%d admitted, max utilization %.2f, mean delay %.1f ms\n",
		r.OnDemandAdmitted, r.OnDemandAdmitted+r.OnDemandRejected,
		r.OnDemandMaxUtilization, r.OnDemandMeanDelayMs)
	_, err := fmt.Fprintln(w, "  on-demand trades admission control and slightly longer paths for zero overload")
	return err
}
