package experiments

import (
	"fmt"
	"io"

	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
)

// FederationConfig parameterises E4: k small providers, each with its own
// random fleet, comparing solo coverage against federated union coverage as
// fleets grow — §2's argument that "without meaningful collaboration, many
// smaller satellite networks would simply have coverage for a patchwork of
// regions around the globe rather than continuous global coverage".
type FederationConfig struct {
	Providers       int
	MinPerFleet     int
	MaxPerFleet     int
	Step            int
	AltitudeKm      float64
	MinElevationDeg float64
	GridSize        int
	Seed            int64
	Workers         int // parallel sweep-point workers; ≤0 = one per CPU
}

// DefaultFederation sweeps 3 providers from 2 to 24 satellites each.
func DefaultFederation() FederationConfig {
	return FederationConfig{
		Providers: 3, MinPerFleet: 2, MaxPerFleet: 24, Step: 2,
		AltitudeKm: 780, MinElevationDeg: 10, GridSize: 4000, Seed: 3,
	}
}

// FederationResult holds the coverage curves.
type FederationResult struct {
	BestSolo sim.Series // per-fleet size vs best single provider coverage
	Union    sim.Series // per-fleet size vs federated coverage
}

// Federation runs E4. Each swept fleet size is an independent task on the
// exec pool with its own RNG derived from (Seed, m), so the result is
// bitwise identical at any worker count.
func Federation(cfg FederationConfig) (*FederationResult, error) {
	if cfg.Providers <= 0 || cfg.MinPerFleet <= 0 || cfg.MaxPerFleet < cfg.MinPerFleet || cfg.Step <= 0 {
		return nil, fmt.Errorf("experiments: federation: bad sweep")
	}
	res := &FederationResult{
		BestSolo: sim.Series{Name: "best single provider"},
		Union:    sim.Series{Name: "federated union"},
	}
	var points []int
	for m := cfg.MinPerFleet; m <= cfg.MaxPerFleet; m += cfg.Step {
		points = append(points, m)
	}
	gains, err := exec.Map(cfg.Workers, len(points), func(i int) (*core.FederationGain, error) {
		m := points[i]
		rng := exec.RNG(cfg.Seed, int64(m))
		providers := make([]core.ProviderConfig, cfg.Providers)
		for p := 0; p < cfg.Providers; p++ {
			c := orbit.RandomCircular(m, cfg.AltitudeKm, rng)
			sats := make([]core.SatelliteConfig, c.Len())
			for i, s := range c.Satellites {
				sats[i] = core.SatelliteConfig{
					ID:       fmt.Sprintf("p%d-%s", p, s.ID),
					Elements: s.Elements,
				}
			}
			providers[p] = core.ProviderConfig{ID: fmt.Sprintf("prov-%d", p), Satellites: sats}
		}
		n, err := core.NewNetwork(core.NetworkConfig{Providers: providers, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		return n.FederationGain(0, cfg.GridSize)
	})
	if err != nil {
		return nil, err
	}
	for i, m := range points {
		res.BestSolo.Append(float64(m), gains[i].BestSolo, 0)
		res.Union.Append(float64(m), gains[i].Union, 0)
	}
	return res, nil
}

// CSV writes both curves.
func (r *FederationResult) CSV(w io.Writer) error {
	union := map[float64]float64{}
	for _, p := range r.Union.Points {
		union[p.X] = p.Y
	}
	var rows [][]string
	for _, p := range r.BestSolo.Points {
		rows = append(rows, []string{f(p.X), f(p.Y), f(union[p.X])})
	}
	return WriteCSV(w, []string{"sats_per_provider", "best_solo_coverage", "union_coverage"}, rows)
}

// Render draws the comparison.
func (r *FederationResult) Render(w io.Writer) error {
	return RenderSeries(w, "E4: solo vs federated coverage (3 providers)",
		"satellites per provider", "coverage fraction",
		[]*sim.Series{&r.BestSolo, &r.Union}, 60, 14)
}

// federationResult is E4 plus the HotspotScenario pair, a scalar result
// with no curve of its own: Render prints it as one line after the chart,
// and the CSV is E4's alone.
type federationResult struct {
	*FederationResult
	hotspotSolo, hotspotFederated float64
}

// Render draws E4 and appends the hotspot line.
func (r *federationResult) Render(w io.Writer) error {
	if err := r.FederationResult.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "hotspot availability (disaster-zone user): best solo %.1f%%, federated %.1f%%\n",
		r.hotspotSolo*100, r.hotspotFederated*100)
	return err
}

// HotspotScenario quantifies the intro's motivating case: a disaster region
// where a hotspot of users depends on whatever satellites pass overhead.
// It returns the fraction of one day during which at least one satellite of
// (a) the best single provider and (b) the federation is visible.
func HotspotScenario(cfg FederationConfig, center geo.LatLon, samples int) (solo, federated float64, err error) {
	if samples <= 0 {
		return 0, 0, fmt.Errorf("experiments: hotspot: samples must be positive")
	}
	rng := exec.RNG(cfg.Seed)
	fleets := make([][]orbit.Satellite, cfg.Providers)
	for p := range fleets {
		fleets[p] = orbit.RandomCircular(cfg.MaxPerFleet, cfg.AltitudeKm, rng).Satellites
	}
	day := 86400.0
	visibleAt := func(sats []orbit.Satellite, t float64) bool {
		for _, s := range sats {
			if s.Elements.Visible(center, t, cfg.MinElevationDeg) {
				return true
			}
		}
		return false
	}
	// Each time sample is a pure visibility probe over the (now fixed)
	// fleets; fan them out on the exec pool. The federation sees a sample
	// iff any provider does — the union of the fleets.
	type sample struct {
		solo []bool
		fed  bool
	}
	outs, mapErr := exec.Map(cfg.Workers, samples, func(i int) (sample, error) {
		t := day * float64(i) / float64(samples)
		s := sample{solo: make([]bool, len(fleets))}
		for p, fl := range fleets {
			if visibleAt(fl, t) {
				s.solo[p] = true
				s.fed = true
			}
		}
		return s, nil
	})
	if mapErr != nil {
		return 0, 0, mapErr
	}
	soloHits := make([]int, cfg.Providers)
	fedHits := 0
	for _, s := range outs {
		for p, hit := range s.solo {
			if hit {
				soloHits[p]++
			}
		}
		if s.fed {
			fedHits++
		}
	}
	best := 0
	for _, h := range soloHits {
		if h > best {
			best = h
		}
	}
	return float64(best) / float64(samples), float64(fedHits) / float64(samples), nil
}
