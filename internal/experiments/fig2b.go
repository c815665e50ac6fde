package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// Fig2bConfig parameterises the latency-vs-constellation-size sweep.
// The paper's method (§4): fix the user and ground station, randomly
// distribute satellite orbits, and measure the shortest-path length between
// the satellite that picks up the user's signal and the satellite that
// relays it to the ground station, converting length to latency.
type Fig2bConfig struct {
	MinSats, MaxSats, Step int
	Trials                 int // random constellations per point
	AltitudeKm             float64
	User                   geo.LatLon
	Ground                 geo.LatLon
	MinElevationDeg        float64
	Seed                   int64
	Workers                int // parallel trial workers; ≤0 = one per CPU
}

// DefaultFig2b mirrors the paper's setup: 780 km satellites, a fixed user
// and a fixed gateway, N swept to 100. The paper does not publish its
// endpoint locations; we use São Paulo → London (≈9,500 km), whose
// large-constellation inter-satellite latency lands at the ~30 ms level the
// figure flattens to.
func DefaultFig2b() Fig2bConfig {
	return Fig2bConfig{
		MinSats: 1, MaxSats: 100, Step: 3,
		Trials:          120,
		AltitudeKm:      780,
		User:            geo.LatLon{Lat: -23.55, Lon: -46.63},
		Ground:          geo.LatLon{Lat: 51.51, Lon: -0.13},
		MinElevationDeg: 0,
		Seed:            1,
	}
}

// Fig2bResult carries the two series of the figure: inter-satellite
// propagation latency (over trials where a path exists) and the fraction of
// trials with any path at all (which shows the paper's "minimum of about
// four satellites" observation).
type Fig2bResult struct {
	Latency      sim.Series // N vs mean inter-satellite latency (ms), err = stddev
	PathFraction sim.Series // N vs fraction of trials with a path
}

// Fig2b runs the sweep. Trials are independent tasks on the exec pool,
// each drawing the RNG stream of (Seed, N, trial), so the result is
// bitwise identical at any worker count.
func Fig2b(cfg Fig2bConfig) (*Fig2bResult, error) {
	if cfg.MinSats <= 0 || cfg.MaxSats < cfg.MinSats || cfg.Step <= 0 {
		return nil, fmt.Errorf("experiments: fig2b: bad sweep [%d,%d] step %d",
			cfg.MinSats, cfg.MaxSats, cfg.Step)
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: fig2b: trials %d must be positive", cfg.Trials)
	}
	tcfg := topo.DefaultConfig()
	tcfg.MinElevationDeg = cfg.MinElevationDeg
	// The paper's §4 simulation is deliberately simplified: any two
	// satellites with line of sight over the Earth's limb can relay, with
	// no RF power cap. Leave LineOfSight as the only ISL constraint so the
	// small-N regime shows the long detours the figure's steep left side
	// comes from.
	tcfg.ISLRangeKm = 1e9

	res := &Fig2bResult{
		Latency:      sim.Series{Name: "inter-satellite latency (ms)"},
		PathFraction: sim.Series{Name: "fraction of trials with a path"},
	}
	users := []topo.UserSpec{{ID: "user", Provider: "p", Pos: cfg.User}}
	grounds := []topo.GroundSpec{{ID: "gs", Provider: "p", Pos: cfg.Ground}}

	var points []int
	for n := cfg.MinSats; n <= cfg.MaxSats; n += cfg.Step {
		points = append(points, n)
	}

	type trialOut struct {
		ok    bool
		latMs float64
	}
	outs, err := exec.Map(cfg.Workers, len(points)*cfg.Trials, func(i int) (trialOut, error) {
		n, trial := points[i/cfg.Trials], i%cfg.Trials
		rng := trialRNGs.Get().(*rand.Rand)
		defer trialRNGs.Put(rng)
		exec.Reseed(rng, cfg.Seed, int64(n), int64(trial))
		c := orbit.RandomCircular(n, cfg.AltitudeKm, rng)
		specs := make([]topo.SatSpec, c.Len())
		for si, s := range c.Satellites {
			specs[si] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
		}
		snap := topo.Build(0, tcfg, specs, grounds, users)
		p, err := routing.ShortestPath(snap, "user", "gs", routing.LatencyCost(0))
		if err != nil {
			return trialOut{}, nil // no path this trial — part of the measurement
		}
		return trialOut{ok: true, latMs: interSatelliteDelayS(snap, p) * 1000}, nil
	})
	if err != nil {
		return nil, err
	}

	for pi, n := range points {
		var lat sim.Histogram
		paths := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[pi*cfg.Trials+trial]
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
	return res, nil
}

// trialRNGs pools the generators of the Fig. 2(b) and 2(c) trials. A
// trial reseeds one to its (Seed, N, trial) stream, the stream exec.RNG
// would build a new math/rand source for, in O(1).
var trialRNGs = sync.Pool{New: func() any { return exec.ScratchRNG() }}

// interSatelliteDelayS sums the propagation delay of the path's
// satellite-to-satellite hops only — the quantity Figure 2(b) plots. For
// single-satellite (bent-pipe) paths it is zero. p must have been routed
// on snap.
func interSatelliteDelayS(snap *topo.Snapshot, p routing.Path) float64 {
	var total float64
	for _, j := range p.Arcs {
		if e := &snap.Index().Edges[j]; e.Kind == topo.LinkISLRF || e.Kind == topo.LinkISLLaser {
			total += e.DelayS
		}
	}
	return total
}

// CSV writes both series over every swept N. Small N where zero trials
// found a path — the region behind the paper's "~4 satellites minimum"
// observation — still get a row, with empty latency fields.
func (r *Fig2bResult) CSV(w io.Writer) error {
	lat := map[float64]sim.Point{}
	for _, p := range r.Latency.Points {
		lat[p.X] = p
	}
	var rows [][]string
	for _, p := range r.PathFraction.Points {
		mean, stddev := "", ""
		if l, ok := lat[p.X]; ok {
			mean, stddev = f(l.Y), f(l.YErr)
		}
		rows = append(rows, []string{f(p.X), mean, stddev, f(p.Y)})
	}
	return WriteCSV(w, []string{"satellites", "latency_ms_mean", "latency_ms_stddev", "path_fraction"}, rows)
}

// Render draws the figure as ASCII.
func (r *Fig2bResult) Render(w io.Writer) error {
	return RenderSeries(w, "Figure 2(b): propagation latency vs constellation size",
		"satellites", "latency (ms)", []*sim.Series{&r.Latency}, 60, 16)
}
