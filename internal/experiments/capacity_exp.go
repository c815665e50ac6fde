package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// CapacityConfig parameterises the capacity experiment: the throughput
// analogue of Fig. 2b/2c. Constellation size N is swept; at each N, users
// at population-weighted world cities offer load, the load aggregates into
// gateway-pair demands, and a max-min fair allocation over the
// phy-capacitated link graph reports what the constellation carries.
type CapacityConfig struct {
	MinSats, MaxSats, Step int
	Trials                 int // random constellations per point
	AltitudeKm             float64
	// LaserFraction of satellites carry optical ISL terminals; the rest
	// are RF-only (the paper's "RF at a minimum, optionally laser" rule).
	LaserFraction float64
	// MaxISLs is the per-satellite power-budget cap on simultaneous ISLs.
	MaxISLs int
	// Users and PerUserBps define offered load; ScatterKm spreads users
	// around their home cities.
	Users      int
	PerUserBps float64
	ScatterKm  float64
	// Gateways places ground stations at the N most populous world cities.
	Gateways int
	// KPaths is the per-demand path diversity for the allocator.
	KPaths          int
	MinElevationDeg float64
	Seed            int64
	Workers         int // parallel trial workers; ≤0 = one per CPU
	// Topology selects the constellation generator per swept N:
	// "random" (the default, the paper's §4 uncoordinated-fleets model)
	// draws independent circular orbits per trial; "grid" flies an
	// as-square-as-possible Walker Delta with explicit +Grid ISL wiring —
	// the mega-constellation layout, whose linear link count is what
	// makes the N-sweep to thousands tractable.
	Topology string
	// GridInclinationDeg is the Walker Delta inclination in grid mode.
	GridInclinationDeg float64
}

// DefaultCapacity sweeps 4..96 satellites: 300 users at 25 Mbps each
// (7.5 Gbps offered) against gateways at the eight most populous cities.
// MaxISLs is 0 (no degree cap): a cap spends laser satellites' link budget
// on their nearest — often RF-only — neighbours and suppresses the laser
// backbone the sweep is meant to expose.
func DefaultCapacity() CapacityConfig {
	return CapacityConfig{
		MinSats: 4, MaxSats: 96, Step: 4,
		Trials:          60,
		AltitudeKm:      780,
		LaserFraction:   0.5,
		MaxISLs:         0,
		Users:           300,
		PerUserBps:      25e6,
		ScatterKm:       30,
		Gateways:        8,
		KPaths:          8,
		MinElevationDeg: 10,
		Seed:            11,
	}
}

// DefaultCapacityScale is the mega-constellation variant of E14: a
// Walker-Delta +Grid sweep from 500 to 4 000 satellites. All satellites
// carry laser terminals (the Starlink configuration); the offered load
// and gateway siting match DefaultCapacity so the two sweeps splice into
// one curve.
func DefaultCapacityScale() CapacityConfig {
	cfg := DefaultCapacity()
	cfg.MinSats, cfg.MaxSats, cfg.Step = 500, 4000, 500
	cfg.Trials = 3 // the constellation is deterministic; trials vary load
	cfg.AltitudeKm = 550
	cfg.LaserFraction = 1
	cfg.Topology = "grid"
	cfg.GridInclinationDeg = 53
	cfg.Seed = 17
	return cfg
}

// CapacityResult carries the sweep's series plus the offered-load baseline.
type CapacityResult struct {
	OfferedGbps float64
	Carried     sim.Series // N vs carried Gbps (err = stddev over trials)
	MaxFlowTop  sim.Series // N vs max-flow bound of the heaviest demand pair (Gbps)
	Satisfied   sim.Series // N vs carried/offered fraction
	Jain        sim.Series // N vs Jain fairness index over demand satisfaction
	Bottleneck  sim.Series // N vs utilisation of the most loaded link
	rows        []capacityRow
}

// capacityRow is one aggregated CSV row.
type capacityRow struct {
	n              int
	offeredGbps    float64
	carriedMean    float64
	carriedStddev  float64
	satisfied      float64
	jain           float64
	bottleneckUtil float64
	bottleneckKind string
	maxflowGbps    float64
	cutLinks       float64
}

// capacityTrialOut is one (N, trial) measurement.
type capacityTrialOut struct {
	offeredBps     float64
	carriedBps     float64
	satisfied      float64
	jain           float64
	bottleneckUtil float64
	bottleneckKind string
	maxflowBps     float64
	cutLinks       int
}

// Capacity runs the sweep. Each (N, trial) task owns an RNG derived from
// (Seed, N, trial) and runs on the exec pool, so the CSV is byte-identical
// at any worker count.
func Capacity(cfg CapacityConfig) (*CapacityResult, error) {
	if cfg.MinSats <= 0 || cfg.MaxSats < cfg.MinSats || cfg.Step <= 0 {
		return nil, fmt.Errorf("experiments: capacity: bad sweep [%d,%d] step %d",
			cfg.MinSats, cfg.MaxSats, cfg.Step)
	}
	if cfg.Trials <= 0 || cfg.Users <= 0 || cfg.PerUserBps <= 0 || cfg.Gateways < 2 {
		return nil, fmt.Errorf("experiments: capacity: trials, users, per-user load must be positive and gateways ≥ 2")
	}
	gridMode := false
	switch cfg.Topology {
	case "", "random":
	case "grid":
		gridMode = true
	default:
		return nil, fmt.Errorf("experiments: capacity: unknown topology %q", cfg.Topology)
	}
	gws := traffic.TopCityGateways(cfg.Gateways)
	groundSpecs := make([]topo.GroundSpec, len(gws))
	for i, g := range gws {
		groundSpecs[i] = topo.GroundSpec{ID: g.ID, Provider: "p", Pos: g.Pos}
	}
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = cfg.MinElevationDeg
	model := traffic.DefaultCapacityModel()
	dcfg := traffic.DefaultDemandConfig()
	dcfg.PerUserBps = cfg.PerUserBps
	dcfg.MinElevationDeg = cfg.MinElevationDeg
	// The allocation runs on the t=0 snapshot, so "lit" must mean visible
	// at that instant — a wide pass window would create demands between
	// gateways the snapshot cannot yet connect.
	dcfg.WindowS = 1

	var points []int
	for n := cfg.MinSats; n <= cfg.MaxSats; n += cfg.Step {
		points = append(points, n)
	}

	// Grid mode flies one deterministic Walker Delta per swept N; trials
	// then vary only the offered load. The constellation is built once per
	// point and shared read-only across the pool, and so is the t=0
	// snapshot's recapacitated Network: the point's first trial to need it
	// builds it while other points' trials run, and since a Network
	// memoises its routes, a gateway pair that several trials offer load
	// on is routed once per point.
	gridConst := make([]*orbit.Constellation, len(points))
	gridNets := make([]func() *traffic.Network, len(points))
	if gridMode {
		for pi, n := range points {
			w, err := orbit.SquareWalkerDelta(n, cfg.AltitudeKm, cfg.GridInclinationDeg)
			if err != nil {
				return nil, fmt.Errorf("experiments: capacity: %w", err)
			}
			c, err := w.Build()
			if err != nil {
				return nil, fmt.Errorf("experiments: capacity: %w", err)
			}
			pairs, err := w.GridISLs(w.DefaultGrid())
			if err != nil {
				return nil, fmt.Errorf("experiments: capacity: %w", err)
			}
			gridConst[pi] = c
			buildCfg := tcfg
			buildCfg.StaticISLs = pairs
			specs := capacitySatSpecs(c, n, cfg)
			gridNets[pi] = sync.OnceValue(func() *traffic.Network {
				net := traffic.NewNetwork(topo.Build(0, buildCfg, specs, groundSpecs, nil))
				net.Recapacitate(model)
				return net
			})
		}
	}

	outs, err := exec.Map(cfg.Workers, len(points)*cfg.Trials, func(i int) (capacityTrialOut, error) {
		pi, trial := i/cfg.Trials, i%cfg.Trials
		n := points[pi]
		// Common random numbers: the user population and destination draws
		// depend only on the trial, so every swept N faces the same offered
		// load and the curve isolates the constellation-size effect.
		demandRNG := exec.RNG(cfg.Seed, -1, int64(trial))
		c := gridConst[pi]
		if !gridMode {
			c = orbit.RandomCircular(n, cfg.AltitudeKm, exec.RNG(cfg.Seed, int64(n), int64(trial)))
		}
		users := sim.CityUsers(cfg.Users, cfg.ScatterKm, demandRNG)
		dm, err := traffic.BuildDemandMatrix(gws, c.Satellites, users, dcfg, demandRNG)
		if err != nil {
			return capacityTrialOut{}, err
		}
		out := capacityTrialOut{offeredBps: float64(cfg.Users) * cfg.PerUserBps}
		if len(dm.Demands) == 0 {
			return out, nil // nothing routable this trial (dark constellation)
		}
		var net *traffic.Network
		if gridMode {
			net = gridNets[pi]()
		} else {
			net = traffic.NewNetwork(topo.Build(0, tcfg, capacitySatSpecs(c, n, cfg), groundSpecs, nil))
			net.Recapacitate(model)
		}
		alloc, err := traffic.MaxMinFair(net, dm.Demands, traffic.AllocConfig{KPaths: cfg.KPaths})
		if err != nil {
			return capacityTrialOut{}, err
		}
		out.carriedBps = alloc.CarriedBps()
		out.satisfied = alloc.CarriedBps() / out.offeredBps
		out.jain = alloc.JainIndex()
		link, util := alloc.MaxUtilization()
		out.bottleneckUtil = util
		if e, ok := net.Snap.Edge(link.From, link.To); ok {
			out.bottleneckKind = e.Kind.String()
		}
		// The heaviest demand pair's max flow bounds what any routing
		// scheme could carry for it; the min cut is the physical
		// bottleneck.
		top := dm.Demands[0]
		for _, d := range dm.Demands[1:] {
			if d.OfferedBps > top.OfferedBps {
				top = d
			}
		}
		mf, err := traffic.MaxFlow(net, top.Src, top.Dst)
		if err != nil {
			return capacityTrialOut{}, err
		}
		out.maxflowBps = mf.ValueBps
		out.cutLinks = len(mf.MinCut)
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &CapacityResult{
		OfferedGbps: float64(cfg.Users) * cfg.PerUserBps / 1e9,
		Carried:     sim.Series{Name: "carried traffic (Gbps)"},
		MaxFlowTop:  sim.Series{Name: "max-flow bound, top pair (Gbps)"},
		Satisfied:   sim.Series{Name: "satisfied fraction"},
		Jain:        sim.Series{Name: "Jain fairness"},
		Bottleneck:  sim.Series{Name: "bottleneck utilisation"},
	}
	for pi, n := range points {
		var carried, satisfied, jain, bottleneck, maxflow, cut sim.Histogram
		kinds := map[string]int{}
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[pi*cfg.Trials+trial]
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
		res.Carried.Append(float64(n), carried.Mean(), carried.Stddev())
		res.MaxFlowTop.Append(float64(n), maxflow.Mean(), maxflow.Stddev())
		res.Satisfied.Append(float64(n), satisfied.Mean(), satisfied.Stddev())
		res.Jain.Append(float64(n), jain.Mean(), jain.Stddev())
		res.Bottleneck.Append(float64(n), bottleneck.Mean(), bottleneck.Stddev())
		res.rows = append(res.rows, capacityRow{
			n:              n,
			offeredGbps:    res.OfferedGbps,
			carriedMean:    carried.Mean(),
			carriedStddev:  carried.Stddev(),
			satisfied:      satisfied.Mean(),
			jain:           jain.Mean(),
			bottleneckUtil: bottleneck.Mean(),
			bottleneckKind: modalKind(kinds),
			maxflowGbps:    maxflow.Mean(),
			cutLinks:       cut.Mean(),
		})
	}
	return res, nil
}

// capacitySatSpecs gives the constellation's first LaserFraction of
// satellites optical terminals, and every satellite the ISL cap.
func capacitySatSpecs(c *orbit.Constellation, n int, cfg CapacityConfig) []topo.SatSpec {
	specs := make([]topo.SatSpec, c.Len())
	for si, s := range c.Satellites {
		specs[si] = topo.SatSpec{
			ID: s.ID, Provider: "p", Elements: s.Elements,
			HasLaser: float64(si) < cfg.LaserFraction*float64(n),
			MaxISLs:  cfg.MaxISLs,
		}
	}
	return specs
}

// modalKind returns the most common bottleneck link class, ties broken
// lexicographically; "" when no trial saw load.
func modalKind(kinds map[string]int) string {
	best, bestN := "", 0
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if kinds[k] > bestN {
			best, bestN = k, kinds[k]
		}
	}
	return best
}

// CSV writes one row per swept N.
func (r *CapacityResult) CSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.rows {
		rows = append(rows, []string{
			d(row.n), f(row.offeredGbps), f(row.carriedMean), f(row.carriedStddev),
			f(row.satisfied), f(row.jain), f(row.bottleneckUtil), row.bottleneckKind,
			f(row.maxflowGbps), f(row.cutLinks),
		})
	}
	return WriteCSV(w, []string{
		"satellites", "offered_gbps", "carried_gbps_mean", "carried_gbps_stddev",
		"satisfied_fraction", "jain_index", "bottleneck_util", "bottleneck_kind",
		"maxflow_top_gbps", "mincut_links",
	}, rows)
}

// Render draws carried traffic and the top-pair max-flow bound against N.
func (r *CapacityResult) Render(w io.Writer) error {
	if err := RenderSeries(w,
		fmt.Sprintf("Capacity: carried traffic vs constellation size (offered %.2f Gbps)", r.OfferedGbps),
		"satellites", "Gbps", []*sim.Series{&r.Carried, &r.MaxFlowTop}, 60, 16); err != nil {
		return err
	}
	return RenderSeries(w, "Capacity: fairness and bottleneck utilisation",
		"satellites", "fraction", []*sim.Series{&r.Satisfied, &r.Jain, &r.Bottleneck}, 60, 10)
}
