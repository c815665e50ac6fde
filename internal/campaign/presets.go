package campaign

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/fluid"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// Constellation preset names.
const (
	// ConstellationIridium is the three-provider Iridium federation the
	// CLI's end-to-end modes build: 66 satellites split round-robin, one
	// gateway per provider at fixed reference sites.
	ConstellationIridium = "iridium"
	// ConstellationWalker is a single-provider 128-satellite +Grid Walker
	// Delta shell (550 km, 53°, all-laser) with gateways at the eight
	// most populous world cities.
	ConstellationWalker = "walker"
)

// Workload preset names.
const (
	// WorkloadInteractive is the per-flow path: a small terminal
	// population driving Poisson transfers through the engine one event
	// per transfer, with handover and per-flow retry modelling.
	WorkloadInteractive = "interactive"
	// WorkloadMixed is fluid mode over the standard web/video/iot mix
	// with a 200k effective population.
	WorkloadMixed = "mixed"
	// WorkloadIoT is fluid mode over a massive-IoT-dominated mix — one
	// million devices, tiny episodic uplinks, store-and-forward-tolerant
	// — the disrupted-communications study's workload.
	WorkloadIoT = "iot"
)

// Constellations lists the constellation presets in axis order.
func Constellations() []string { return []string{ConstellationIridium, ConstellationWalker} }

// Workloads lists the workload presets in axis order.
func Workloads() []string { return []string{WorkloadInteractive, WorkloadMixed, WorkloadIoT} }

// interactiveUsers is the per-flow terminal population. Small enough
// that a cell stays O(10³) events, large enough to exercise handover and
// multi-provider association.
const interactiveUsers = 24

// IoTClasses is the massive-IoT traffic mix: overwhelmingly tiny
// episodic telemetry uplinks, a sliver of firmware pushes, and a trace
// of interactive traffic from the humans minding the devices.
func IoTClasses() []fluid.Class {
	return []fluid.Class{
		{Name: "telemetry", UserShare: 0.90, RatePerUserS: 0.001, MinBytes: 128, MaxBytes: 64_000, ParetoAlpha: 1.8},
		{Name: "firmware", UserShare: 0.05, RatePerUserS: 0.00002, MinBytes: 500_000, MaxBytes: 50_000_000, ParetoAlpha: 1.4},
		{Name: "ops", UserShare: 0.05, RatePerUserS: 0.02, MinBytes: 50_000, MaxBytes: 50_000_000, ParetoAlpha: 1.3},
	}
}

// DefaultSpec is the committed E17 matrix: both constellations, a
// fault-free control plus nominal and ×4 fault intensities, all three
// workloads, all three policies — 54 cells.
func DefaultSpec() Spec {
	return Spec{
		Name:           "disruption-campaign",
		Constellations: Constellations(),
		Intensities:    []float64{0, 1, 4},
		Workloads:      Workloads(),
		Policies:       core.Policies(),
		DurationS:      1800,
		IntervalS:      60,
		Seed:           17,
		EventBudget:    5_000_000,
	}
}

// QuickSpec is the CI determinism matrix: one constellation, the control
// and ×4 intensities, the two extreme workloads, the two extreme
// policies — 8 cells, short horizon.
func QuickSpec() Spec {
	return Spec{
		Name:           "disruption-campaign",
		Constellations: []string{ConstellationIridium},
		Intensities:    []float64{0, 4},
		Workloads:      []string{WorkloadInteractive, WorkloadIoT},
		Policies:       []core.Policy{core.PolicyOnDemand, core.PolicyDTN},
		DurationS:      600,
		IntervalS:      60,
		Seed:           17,
		EventBudget:    1_000_000,
	}
}

// buildConstellation assembles the cell's federation (no users yet) and
// returns the network plus its provider IDs in round-robin order.
// Topology workers stay at 1: the campaign parallelises across cells, so
// nesting per-snapshot workers inside a cell would just thrash the pool.
func buildConstellation(preset string, seed int64) (*core.Network, []string, error) {
	switch preset {
	case ConstellationIridium:
		pcs, err := core.IridiumFederation(3)
		if err != nil {
			return nil, nil, err
		}
		ids := make([]string, len(pcs))
		for p, pc := range pcs {
			ids[p] = pc.ID
		}
		net, err := core.NewNetwork(core.NetworkConfig{
			Providers: pcs, Seed: seed, Topo: topo.Config{Workers: 1},
		})
		return net, ids, err

	case ConstellationWalker:
		w, err := orbit.SquareWalkerDelta(128, 550, 53)
		if err != nil {
			return nil, nil, err
		}
		c, err := w.Build()
		if err != nil {
			return nil, nil, err
		}
		pairs, err := w.GridISLs(w.DefaultGrid())
		if err != nil {
			return nil, nil, err
		}
		sats := make([]core.SatelliteConfig, c.Len())
		for i, s := range c.Satellites {
			sats[i] = core.SatelliteConfig{ID: s.ID, Elements: s.Elements, HasLaser: true}
		}
		var stations []core.GroundStationConfig
		for _, g := range traffic.TopCityGateways(8) {
			stations = append(stations, core.GroundStationConfig{
				ID: g.ID, Pos: g.Pos, BackhaulBps: 10e9, PricePerGB: 0.05, VisitorSurge: 2,
			})
		}
		net, err := core.NewNetwork(core.NetworkConfig{
			Providers: []core.ProviderConfig{{
				ID: "walker", Satellites: sats, CarriagePerGB: 0.2, GroundStations: stations,
			}},
			Seed: seed,
			Topo: topo.Config{Workers: 1, StaticISLs: pairs},
		})
		return net, []string{"walker"}, err
	}
	return nil, nil, fmt.Errorf("campaign: unknown constellation preset %q", preset)
}

// buildScenario composes the cell's scenario from its axis values via
// the core composition helpers.
func buildScenario(spec Spec, c Cell) (core.Scenario, error) {
	sc := core.Scenario{
		DurationS:         spec.DurationS,
		SnapshotIntervalS: spec.IntervalS,
		Seed:              c.Seed,
	}
	switch c.Workload {
	case WorkloadInteractive:
		sc.PerUserRate = 0.02
		sc.MinBytes = 1_000_000
		sc.MaxBytes = 500_000_000
	case WorkloadMixed:
		sc = sc.WithAggregateWorkload(200_000, nil)
	case WorkloadIoT:
		sc = sc.WithAggregateWorkload(1_000_000, IoTClasses())
	default:
		return sc, fmt.Errorf("campaign: unknown workload preset %q", c.Workload)
	}
	// The cell seed roots the fault timeline too; the faults package
	// namespaces its streams internally, so workload and fault randomness
	// stay independent.
	sc = sc.WithFaults(faults.Default(), c.Intensity, c.Seed)
	sc, err := sc.WithPolicy(c.Policy)
	if err != nil {
		return sc, err
	}
	return sc.WithEventBudget(spec.EventBudget), nil
}

// RunCell builds and runs one cell's full simulation: constellation
// preset, workload population, fault timeline, policy tuning, event
// budget. It is the production CellFunc body; the supervisor adds panic
// containment, retry, and manifest handling around it.
func RunCell(spec Spec, c Cell) (Metrics, error) {
	net, providers, err := buildConstellation(c.Constellation, c.Seed)
	if err != nil {
		return Metrics{}, err
	}
	sc, err := buildScenario(spec, c)
	if err != nil {
		return Metrics{}, err
	}
	if !sc.Aggregate.Enabled() {
		rng := exec.DomainRNG(c.Seed, domainUsers)
		for i, pos := range sim.CityUsers(interactiveUsers, 30, rng) {
			if _, err := net.AddUser(fmt.Sprintf("user-%d", i), providers[i%len(providers)], pos); err != nil {
				return Metrics{}, err
			}
		}
	}
	res, err := net.RunScenario(sc)
	if err != nil {
		return Metrics{}, err
	}
	return MetricsOf(res), nil
}

// CellRunner adapts RunCell to the supervisor's CellFunc shape.
func CellRunner(spec Spec) CellFunc {
	return func(c Cell) (Metrics, error) { return RunCell(spec, c) }
}
