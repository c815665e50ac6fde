package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"github.com/openspace-project/openspace/internal/campaign"
	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/fluid"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// The replays below redo each workload's experiment with the same task
// decomposition on exec.Map and the same worker count, calling only the
// layers' public functions, with a span around each call. Each emits the
// same CSV bytes as the experiment it mirrors; the benchmark checks that,
// which is how a replay proves it did the same work.

// f and d format CSV fields the way internal/experiments does.
func f(v float64) string { return fmt.Sprintf("%.6g", v) }
func d(v int) string     { return fmt.Sprintf("%d", v) }

// emitTraced renders a result's CSV inside an experiments.CSV span.
func emitTraced(r *recorder, file string, keys []string, res csvWriter) (output, error) {
	s := r.begin("experiments.CSV")
	out, err := emit(file, keys, res)
	r.end(s)
	r.add("experiments.csv_bytes", int64(len(out.csv)))
	return out, err
}

// writeCSVTraced is emitTraced for rows the replay formats itself.
func writeCSVTraced(r *recorder, file string, keys, header []string, rows [][]string) (output, error) {
	s := r.begin("experiments.CSV")
	var b bytes.Buffer
	err := experiments.WriteCSV(&b, header, rows)
	r.end(s)
	r.add("experiments.csv_bytes", int64(b.Len()))
	return output{file: file, keys: keys, csv: b.Bytes()}, err
}

func satSpecs(c *orbit.Constellation, provider string) []topo.SatSpec {
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: provider, Elements: s.Elements}
	}
	return specs
}

// buildTraced is topo.Build inside a span, counting the graph it built.
func buildTraced(r *recorder, t float64, cfg topo.Config, sats []topo.SatSpec, grounds []topo.GroundSpec, users []topo.UserSpec) *topo.Snapshot {
	s := r.begin("topo.Build")
	snap := topo.Build(t, cfg, sats, grounds, users)
	r.end(s)
	r.add("topo.nodes", int64(snap.NodeCount()))
	r.add("topo.edges", int64(snap.EdgeCount()))
	return snap
}

func replayFig2(p params, t *tracer) ([]output, error) {
	grid, bcfg, ccfg := fig2Configs(p)
	a, err := replayFig2a(grid, t.main)
	if err != nil {
		return nil, err
	}
	b, err := replayFig2b(bcfg, t)
	if err != nil {
		return nil, err
	}
	c, err := replayFig2c(ccfg, t)
	if err != nil {
		return nil, err
	}
	return []output{a, b, c}, nil
}

// replayFig2a mirrors experiments.Fig2a.
func replayFig2a(gridSize int, r *recorder) (output, error) {
	cfg := orbit.Iridium()
	s := r.begin("orbit.Build")
	c, err := cfg.Build()
	r.end(s)
	if err != nil {
		return output{}, err
	}
	res := &experiments.Fig2aResult{Config: cfg}
	s = r.begin("orbit.SubSatellitePoint")
	for _, sat := range c.Satellites {
		res.SubSatPoints = append(res.SubSatPoints, sat.Elements.SubSatellitePoint(0))
	}
	r.end(s)
	s = r.begin("orbit.Footprints")
	caps := c.Footprints(0, 10)
	r.end(s)
	s = r.begin("geo.ExactCoverageFraction")
	res.CoverageExact = geo.ExactCoverageFraction(caps, gridSize)
	r.end(s)
	res.IntraPlaneKm = c.Satellites[0].Elements.PositionECI(0).DistanceKm(c.Satellites[1].Elements.PositionECI(0))
	snap := buildTraced(r, 0, topo.DefaultConfig(), satSpecs(c, "ref"), nil, nil)
	var sum float64
	for _, id := range snap.Nodes() {
		for _, e := range snap.Neighbors(id) {
			res.ISLCount++
			sum += e.DistanceKm
		}
	}
	if res.ISLCount > 0 {
		res.MeanISLRangeKm = sum / float64(res.ISLCount)
	}
	return emitTraced(r, "fig2a.csv", nil, res)
}

func sweepPoints(min, max, step int) []int {
	var points []int
	for n := min; n <= max; n += step {
		points = append(points, n)
	}
	return points
}

// replayFig2b mirrors experiments.Fig2b.
func replayFig2b(cfg experiments.Fig2bConfig, t *tracer) (output, error) {
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = cfg.MinElevationDeg
	tcfg.ISLRangeKm = 1e9
	users := []topo.UserSpec{{ID: "user", Provider: "p", Pos: cfg.User}}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: cfg.Ground}}
	points := sweepPoints(cfg.MinSats, cfg.MaxSats, cfg.Step)

	type trialOut struct {
		ok    bool
		latMs float64
		rec   *recorder
	}
	base := t.reserve(len(points) * cfg.Trials)
	outs, err := exec.Map(cfg.Workers, len(points)*cfg.Trials, func(i int) (trialOut, error) {
		r := newRecorder(base + i)
		task := r.begin("exec.task")
		defer r.end(task)
		n, trial := points[i/cfg.Trials], i%cfg.Trials
		rng := exec.RNG(cfg.Seed, int64(n), int64(trial))
		s := r.begin("orbit.RandomCircular")
		c := orbit.RandomCircular(n, cfg.AltitudeKm, rng)
		r.end(s)
		snap := buildTraced(r, 0, tcfg, satSpecs(c, "p"), grounds, users)
		s = r.begin("routing.ShortestPath")
		path, err := routing.ShortestPath(snap, "user", "gs", routing.LatencyCost(0))
		r.end(s)
		if err != nil {
			return trialOut{rec: r}, nil // no path this trial: part of the measurement
		}
		return trialOut{ok: true, latMs: interSatelliteDelayS(snap, path) * 1000, rec: r}, nil
	})
	if err != nil {
		return output{}, err
	}
	res := &experiments.Fig2bResult{
		Latency:      sim.Series{Name: "inter-satellite latency (ms)"},
		PathFraction: sim.Series{Name: "fraction of trials with a path"},
	}
	for pi, n := range points {
		var lat sim.Histogram
		paths := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[pi*cfg.Trials+trial]
			t.collect(out.rec)
			if !out.ok {
				continue
			}
			paths++
			lat.Add(out.latMs)
		}
		res.PathFraction.Append(float64(n), float64(paths)/float64(cfg.Trials), 0)
		if lat.Count() > 0 {
			res.Latency.Append(float64(n), lat.Mean(), lat.Stddev())
		}
	}
	return emitTraced(t.main, "fig2b.csv", nil, res)
}

// interSatelliteDelayS sums the delay of a path's satellite-to-satellite
// hops, as Fig. 2(b) plots it.
func interSatelliteDelayS(snap *topo.Snapshot, p routing.Path) float64 {
	var total float64
	for i := 0; i+1 < len(p.Nodes); i++ {
		e, ok := snap.Edge(p.Nodes[i], p.Nodes[i+1])
		if !ok {
			continue
		}
		if e.Kind == topo.LinkISLRF || e.Kind == topo.LinkISLLaser {
			total += e.DelayS
		}
	}
	return total
}

// replayFig2c mirrors experiments.Fig2c.
func replayFig2c(cfg experiments.Fig2cConfig, t *tracer) (output, error) {
	points := sweepPoints(cfg.MinSats, cfg.MaxSats, cfg.Step)
	type trialOut struct {
		wc, ex float64
		rec    *recorder
	}
	base := t.reserve(len(points) * cfg.Trials)
	outs, err := exec.Map(cfg.Workers, len(points)*cfg.Trials, func(i int) (trialOut, error) {
		r := newRecorder(base + i)
		task := r.begin("exec.task")
		defer r.end(task)
		n, trial := points[i/cfg.Trials], i%cfg.Trials
		rng := exec.RNG(cfg.Seed, int64(n), int64(trial))
		s := r.begin("orbit.RandomCircular")
		c := orbit.RandomCircular(n, cfg.AltitudeKm, rng)
		r.end(s)
		s = r.begin("orbit.Footprints")
		caps := c.Footprints(0, cfg.MinElevationDeg)
		r.end(s)
		s = r.begin("geo.WorstCaseCoverageFraction")
		wc := geo.WorstCaseCoverageFraction(caps)
		r.end(s)
		s = r.begin("geo.ExactCoverageFraction")
		ex := geo.ExactCoverageFraction(caps, cfg.GridSize)
		r.end(s)
		return trialOut{wc: wc, ex: ex, rec: r}, nil
	})
	if err != nil {
		return output{}, err
	}
	res := &experiments.Fig2cResult{
		WorstCase: sim.Series{Name: "worst-case overlap rule"},
		Exact:     sim.Series{Name: "exact union"},
	}
	for pi, n := range points {
		var wc, ex sim.Histogram
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[pi*cfg.Trials+trial]
			t.collect(out.rec)
			wc.Add(out.wc)
			ex.Add(out.ex)
		}
		res.WorstCase.Append(float64(n), wc.Mean(), wc.Stddev())
		res.Exact.Append(float64(n), ex.Mean(), ex.Stddev())
	}
	return emitTraced(t.main, "fig2c.csv", nil, res)
}

// topGateways sites gateways at the most populous world cities, as the
// capacity and users-scale experiments do.
func topGateways(count int) []traffic.Gateway {
	cities := sim.WorldCities()
	sort.Slice(cities, func(a, b int) bool {
		if cities[a].PopM != cities[b].PopM { //lint:allow floateq exact sort tie-break, as the experiments siting rule has it
			return cities[a].PopM > cities[b].PopM
		}
		return cities[a].Name < cities[b].Name
	})
	count = min(count, len(cities))
	gws := make([]traffic.Gateway, count)
	for i := range gws {
		gws[i] = traffic.Gateway{ID: "gw-" + cities[i].Name, Pos: cities[i].Pos}
	}
	return gws
}

func groundSpecs(gws []traffic.Gateway) []topo.GroundSpec {
	specs := make([]topo.GroundSpec, len(gws))
	for i, g := range gws {
		specs[i] = topo.GroundSpec{ID: g.ID, Provider: "p", Pos: g.Pos}
	}
	return specs
}

// gridShell builds a square Walker Delta with its +Grid ISL plan, each
// orbit call inside a span.
func gridShell(r *recorder, n int, altitudeKm, inclinationDeg float64) (*orbit.Constellation, []orbit.ISLPair, error) {
	s := r.begin("orbit.SquareWalkerDelta")
	w, err := orbit.SquareWalkerDelta(n, altitudeKm, inclinationDeg)
	r.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = r.begin("orbit.Build")
	c, err := w.Build()
	r.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = r.begin("orbit.GridISLs")
	pairs, err := w.GridISLs(w.DefaultGrid())
	r.end(s)
	return c, pairs, err
}

// replayCapacity mirrors experiments.Capacity in its grid mode.
func replayCapacity(p params, t *tracer) ([]output, error) {
	cfg := capacityConfig(p)
	if cfg.Topology != "grid" {
		return nil, fmt.Errorf("capacity replay: topology %q, want grid", cfg.Topology)
	}
	gws := topGateways(cfg.Gateways)
	grounds := groundSpecs(gws)
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = cfg.MinElevationDeg
	model := traffic.DefaultCapacityModel()
	dcfg := traffic.DefaultDemandConfig()
	dcfg.PerUserBps = cfg.PerUserBps
	dcfg.MinElevationDeg = cfg.MinElevationDeg
	dcfg.WindowS = 1
	points := sweepPoints(cfg.MinSats, cfg.MaxSats, cfg.Step)

	consts := make([]*orbit.Constellation, len(points))
	cfgs := make([]topo.Config, len(points))
	specs := make([][]topo.SatSpec, len(points))
	for pi, n := range points {
		c, pairs, err := gridShell(t.main, n, cfg.AltitudeKm, cfg.GridInclinationDeg)
		if err != nil {
			return nil, fmt.Errorf("capacity replay: %w", err)
		}
		consts[pi], cfgs[pi] = c, tcfg
		cfgs[pi].StaticISLs = pairs
		specs[pi] = make([]topo.SatSpec, c.Len())
		for si, s := range c.Satellites {
			specs[pi][si] = topo.SatSpec{
				ID: s.ID, Provider: "p", Elements: s.Elements,
				HasLaser: float64(si) < cfg.LaserFraction*float64(n),
				MaxISLs:  cfg.MaxISLs,
			}
		}
	}

	type trialOut struct {
		offeredBps, carriedBps, satisfied, jain, bottleneckUtil, maxflowBps float64
		bottleneckKind                                                      string
		cutLinks                                                            int
		rec                                                                 *recorder
	}
	base := t.reserve(len(points) * cfg.Trials)
	outs, err := exec.Map(cfg.Workers, len(points)*cfg.Trials, func(i int) (trialOut, error) {
		r := newRecorder(base + i)
		task := r.begin("exec.task")
		defer r.end(task)
		pi, trial := i/cfg.Trials, i%cfg.Trials
		demandRNG := exec.RNG(cfg.Seed, -1, int64(trial))
		c := consts[pi]
		s := r.begin("sim.CityUsers")
		users := sim.CityUsers(cfg.Users, cfg.ScatterKm, demandRNG)
		r.end(s)
		s = r.begin("traffic.BuildDemandMatrix")
		dm, err := traffic.BuildDemandMatrix(gws, c.Satellites, users, dcfg, demandRNG)
		r.end(s)
		if err != nil {
			return trialOut{}, err
		}
		r.add("traffic.demands", int64(len(dm.Demands)))
		out := trialOut{offeredBps: float64(cfg.Users) * cfg.PerUserBps, rec: r}
		if len(dm.Demands) == 0 {
			return out, nil
		}
		snap := buildTraced(r, 0, cfgs[pi], specs[pi], grounds, nil)
		s = r.begin("traffic.NewNetwork")
		net := traffic.NewNetwork(snap)
		net.Recapacitate(model)
		r.end(s)
		s = r.begin("traffic.MaxMinFair")
		alloc, err := traffic.MaxMinFair(net, dm.Demands, traffic.AllocConfig{KPaths: cfg.KPaths})
		r.end(s)
		if err != nil {
			return trialOut{}, err
		}
		out.carriedBps = alloc.CarriedBps()
		out.satisfied = alloc.CarriedBps() / out.offeredBps
		out.jain = alloc.JainIndex()
		link, util := alloc.MaxUtilization()
		out.bottleneckUtil = util
		if e, ok := snap.Edge(link.From, link.To); ok {
			out.bottleneckKind = e.Kind.String()
		}
		top := dm.Demands[0]
		for _, dem := range dm.Demands[1:] {
			if dem.OfferedBps > top.OfferedBps {
				top = dem
			}
		}
		s = r.begin("traffic.MaxFlow")
		mf, err := traffic.MaxFlow(net, top.Src, top.Dst)
		r.end(s)
		if err != nil {
			return trialOut{}, err
		}
		out.maxflowBps = mf.ValueBps
		out.cutLinks = len(mf.MinCut)
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	offeredGbps := float64(cfg.Users) * cfg.PerUserBps / 1e9
	var rows [][]string
	for pi, n := range points {
		var carried, satisfied, jain, bottleneck, maxflow, cut sim.Histogram
		kinds := map[string]int{}
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[pi*cfg.Trials+trial]
			t.collect(out.rec)
			carried.Add(out.carriedBps / 1e9)
			satisfied.Add(out.satisfied)
			jain.Add(out.jain)
			bottleneck.Add(out.bottleneckUtil)
			maxflow.Add(out.maxflowBps / 1e9)
			cut.Add(float64(out.cutLinks))
			if out.bottleneckKind != "" {
				kinds[out.bottleneckKind]++
			}
		}
		rows = append(rows, []string{
			d(n), f(offeredGbps), f(carried.Mean()), f(carried.Stddev()),
			f(satisfied.Mean()), f(jain.Mean()), f(bottleneck.Mean()), modalKind(kinds),
			f(maxflow.Mean()), f(cut.Mean()),
		})
	}
	out, err := writeCSVTraced(t.main, "capacity-scale.csv", capacityKeys(cfg), []string{
		"satellites", "offered_gbps", "carried_gbps_mean", "carried_gbps_stddev",
		"satisfied_fraction", "jain_index", "bottleneck_util", "bottleneck_kind",
		"maxflow_top_gbps", "mincut_links",
	}, rows)
	return []output{out}, err
}

// modalKind returns the most common bottleneck link class, ties broken
// lexicographically; "" when no trial saw load.
func modalKind(kinds map[string]int) string {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	best, bestN := "", 0
	for _, k := range names {
		if kinds[k] > bestN {
			best, bestN = k, kinds[k]
		}
	}
	return best
}

// replayUsers mirrors experiments.UsersScale.
func replayUsers(p params, t *tracer) ([]output, error) {
	cfg := usersConfig(p)
	c, pairs, err := gridShell(t.main, cfg.Sats, cfg.AltitudeKm, cfg.InclinationDeg)
	if err != nil {
		return nil, fmt.Errorf("users replay: %w", err)
	}
	tcfg := topo.DefaultConfig()
	tcfg.StaticISLs = pairs
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: true}
	}
	gws := topGateways(cfg.Gateways)
	grounds := groundSpecs(gws)
	epochs := int(math.Ceil(cfg.DurationS / cfg.IntervalS))
	snaps := make([]*topo.Snapshot, epochs)
	for e := range snaps {
		snaps[e] = buildTraced(t.main, float64(e)*cfg.IntervalS, tcfg, specs, grounds, nil)
	}

	type cellOut struct {
		offeredBps float64
		fr         *fluid.Result
		rec        *recorder
	}
	base := t.reserve(len(cfg.UserCounts))
	outs, err := exec.Map(cfg.Workers, len(cfg.UserCounts), func(i int) (cellOut, error) {
		r := newRecorder(base + i)
		task := r.begin("exec.task")
		defer r.end(task)
		fcfg := fluid.Config{Users: cfg.UserCounts[i], Classes: cfg.Classes, KPaths: cfg.KPaths, Seed: cfg.Seed}
		s := r.begin("fluid.BuildClassMatrix")
		m, err := fluid.BuildClassMatrix(fcfg)
		r.end(s)
		if err != nil {
			return cellOut{}, err
		}
		r.add("fluid.aggregates", int64(len(m.Aggregates)))
		s = r.begin("fluid.NewEvolver")
		ev, err := fluid.NewEvolver(m, fcfg, gws)
		r.end(s)
		if err != nil {
			return cellOut{}, err
		}
		for e := 0; e < epochs; e++ {
			t0 := float64(e) * cfg.IntervalS
			t1 := math.Min(t0+cfg.IntervalS, cfg.DurationS)
			s = r.begin("fluid.Advance")
			err := ev.Advance(snaps[e], t0, t1, e)
			r.end(s)
			if err != nil {
				return cellOut{}, err
			}
		}
		r.add("fluid.transfers", ev.Result().TransfersAttempted)
		return cellOut{offeredBps: m.OfferedBps(), fr: ev.Result(), rec: r}, nil
	})
	if err != nil {
		return nil, err
	}

	classes := cfg.Classes
	if classes == nil {
		classes = fluid.DefaultClasses()
	}
	header := []string{
		"users", "offered_gbps", "carried_gbps",
		"transfers_attempted", "transfers_delivered", "delivered_fraction",
		"local_transfers", "bytes_gb", "retries", "recovered", "abandoned", "pending",
		"latency_p50_ms", "latency_p95_ms",
	}
	for _, cl := range classes {
		header = append(header, cl.Name+"_p50_ms", cl.Name+"_p95_ms")
	}
	rows := make([][]string, len(outs))
	for i, out := range outs {
		t.collect(out.rec)
		fr := out.fr
		rows[i] = []string{
			d(cfg.UserCounts[i]), f(out.offeredBps / 1e9), f(fr.CarriedBps() / 1e9),
			fmt.Sprint(fr.TransfersAttempted), fmt.Sprint(fr.TransfersDelivered),
			f(fr.DeliveredFraction()), fmt.Sprint(fr.LocalTransfers),
			f(float64(fr.BytesDelivered) / 1e9), fmt.Sprint(fr.Retries),
			fmt.Sprint(fr.Recovered), fmt.Sprint(fr.Abandoned), fmt.Sprint(fr.PendingTransfers),
			f(fr.Latency.Quantile(0.5) * 1000), f(fr.Latency.Quantile(0.95) * 1000),
		}
		for _, cls := range fr.PerClass {
			rows[i] = append(rows[i], f(cls.Latency.Quantile(0.5)*1000), f(cls.Latency.Quantile(0.95)*1000))
		}
	}
	out, err := writeCSVTraced(t.main, "users-scale.csv", usersKeys(cfg), header, rows)
	return []output{out}, err
}

// replayCampaign runs the campaign through campaign.Run with
// campaign.RunCell wrapped as its CellFunc. Cells run concurrently, so
// each writes its spans and metrics only to its own slot, indexed by the
// cell's matrix position.
func replayCampaign(p params, t *tracer) ([]output, error) {
	spec := campaignSpec(p)
	cells := spec.Cells()
	recs := make([]*recorder, len(cells))
	metrics := make([]campaign.Metrics, len(cells))
	base := t.reserve(len(cells))
	cfg := campaign.DefaultConfig()
	cfg.Workers = p.workers
	out, err := campaign.Run(spec, cfg, func(c campaign.Cell) (campaign.Metrics, error) {
		r := newRecorder(base + c.Index)
		s := r.begin("campaign.RunCell")
		m, err := campaign.RunCell(spec, c)
		r.end(s)
		recs[c.Index], metrics[c.Index] = r, m
		return m, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		if r == nil {
			continue
		}
		m := metrics[i]
		r.add("sim.events", int64(m.Events))
		r.add("core.transfers", m.Attempted)
		r.add("core.delivered", m.Delivered)
		r.add("core.retries", m.Retries)
		r.add("faults.events", m.FaultEvents)
		t.collect(r)
	}
	res, err := emitTraced(t.main, "disruption-campaign.csv", campaignKeys(spec), &experiments.DisruptionResult{Out: out})
	return []output{res}, err
}
