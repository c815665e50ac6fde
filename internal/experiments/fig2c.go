package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
)

// Fig2cConfig parameterises the coverage-vs-constellation-size sweep.
type Fig2cConfig struct {
	MinSats, MaxSats, Step int
	Trials                 int
	AltitudeKm             float64
	MinElevationDeg        float64
	GridSize               int // Fibonacci grid points for the exact union
	Seed                   int64
	Workers                int // parallel trial workers; ≤0 = one per CPU
}

// DefaultFig2c mirrors the paper: random orbits at 780 km, coverage under
// the worst-case full-overlap rule, swept to 100 satellites. The exact
// union is computed alongside as the ablation series (DESIGN.md §4).
func DefaultFig2c() Fig2cConfig {
	return Fig2cConfig{
		MinSats: 1, MaxSats: 100, Step: 3,
		Trials: 40, AltitudeKm: 780, MinElevationDeg: 0,
		GridSize: 4000, Seed: 2,
	}
}

// Fig2cResult carries the figure's series.
type Fig2cResult struct {
	WorstCase sim.Series // the paper's conservative rule
	Exact     sim.Series // true union coverage (ablation)
}

// Fig2c runs the sweep. Trials are independent tasks on the exec pool,
// each drawing the RNG stream of (Seed, N, trial), so the result is
// bitwise identical at any worker count.
func Fig2c(cfg Fig2cConfig) (*Fig2cResult, error) {
	if cfg.MinSats <= 0 || cfg.MaxSats < cfg.MinSats || cfg.Step <= 0 {
		return nil, fmt.Errorf("experiments: fig2c: bad sweep [%d,%d] step %d",
			cfg.MinSats, cfg.MaxSats, cfg.Step)
	}
	if cfg.Trials <= 0 || cfg.GridSize <= 0 {
		return nil, fmt.Errorf("experiments: fig2c: trials and grid must be positive")
	}
	res := &Fig2cResult{
		WorstCase: sim.Series{Name: "worst-case overlap rule"},
		Exact:     sim.Series{Name: "exact union"},
	}
	var points []int
	for n := cfg.MinSats; n <= cfg.MaxSats; n += cfg.Step {
		points = append(points, n)
	}
	type trialOut struct {
		wc, ex float64
	}
	grid := geo.NewCoverageGrid(cfg.GridSize) // read-only, shared by every trial
	outs, err := exec.Map(cfg.Workers, len(points)*cfg.Trials, func(i int) (trialOut, error) {
		n, trial := points[i/cfg.Trials], i%cfg.Trials
		rng := trialRNGs.Get().(*rand.Rand)
		defer trialRNGs.Put(rng)
		exec.Reseed(rng, cfg.Seed, int64(n), int64(trial))
		c := orbit.RandomCircular(n, cfg.AltitudeKm, rng)
		caps := c.Footprints(0, cfg.MinElevationDeg)
		return trialOut{
			wc: geo.WorstCaseCoverageFraction(caps),
			ex: grid.Fraction(caps),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range points {
		var wc, ex sim.Histogram
		for trial := 0; trial < cfg.Trials; trial++ {
			out := outs[pi*cfg.Trials+trial]
			wc.Add(out.wc)
			ex.Add(out.ex)
		}
		res.WorstCase.Append(float64(n), wc.Mean(), wc.Stddev())
		res.Exact.Append(float64(n), ex.Mean(), ex.Stddev())
	}
	return res, nil
}

// CSV writes both series.
func (r *Fig2cResult) CSV(w io.Writer) error {
	exact := map[float64]sim.Point{}
	for _, p := range r.Exact.Points {
		exact[p.X] = p
	}
	var rows [][]string
	for _, p := range r.WorstCase.Points {
		e := exact[p.X]
		rows = append(rows, []string{f(p.X), f(p.Y), f(p.YErr), f(e.Y), f(e.YErr)})
	}
	return WriteCSV(w, []string{"satellites", "coverage_worstcase", "coverage_worstcase_stddev",
		"coverage_exact", "coverage_exact_stddev"}, rows)
}

// Render draws the figure as ASCII.
func (r *Fig2cResult) Render(w io.Writer) error {
	return RenderSeries(w, "Figure 2(c): Earth coverage vs constellation size",
		"satellites", "coverage fraction",
		[]*sim.Series{&r.WorstCase, &r.Exact}, 60, 16)
}
