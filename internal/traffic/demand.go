package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/ground"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
)

// Gateway is a candidate traffic ingress/egress point — a ground station
// that sells gateway service (§2.1's ground-station-as-a-service model).
type Gateway struct {
	ID  string
	Pos geo.LatLon
}

// DemandConfig parameterises demand-matrix generation.
type DemandConfig struct {
	// PerUserBps is each user's offered load.
	PerUserBps float64
	// TimeS and WindowS bound the visibility check: a gateway is "lit" —
	// eligible to carry traffic — when at least one satellite passes over
	// it within [TimeS, TimeS+WindowS] (ground.PassSchedule).
	TimeS, WindowS float64
	// MinElevationDeg is the gateway elevation mask for the pass check.
	MinElevationDeg float64
}

// DefaultDemandConfig returns a 25 Mbps broadband user against a 60 s
// visibility window at a 10° mask.
func DefaultDemandConfig() DemandConfig {
	return DemandConfig{PerUserBps: 25e6, WindowS: 60, MinElevationDeg: 10}
}

// DemandMatrix aggregates user offered load into gateway-pair demands.
type DemandMatrix struct {
	// Demands holds one entry per (ingress, egress) gateway pair with
	// nonzero load, sorted by (Src, Dst).
	Demands []Demand
	// LitGateways are the gateways with satellite visibility, sorted.
	LitGateways []string
	// UnservedUsers counts users with no lit gateway anywhere (the
	// constellation cannot pick their traffic up at all).
	UnservedUsers int
	// LocalUsers counts users whose ingress and egress gateway coincide —
	// their traffic never enters the space segment.
	LocalUsers int
}

// OfferedBps sums the matrix's offered load.
func (m *DemandMatrix) OfferedBps() float64 {
	var total float64
	for _, d := range m.Demands {
		total += d.OfferedBps
	}
	return total
}

// BuildDemandMatrix aggregates per-user offered load into gateway-pair
// demands:
//
//   - Gateways are lit when ground.PassSchedule finds at least one
//     satellite pass over them inside the config's window — the visibility
//     gate that makes small constellations drop whole regions.
//   - Each user's traffic enters at the nearest lit gateway.
//   - Each user's traffic exits at the lit gateway nearest to a
//     destination city drawn population-weighted from sim.WorldCities —
//     the gravity-model assumption that traffic sinks where people are.
//
// The rng drives only destination sampling; for a fixed rng state the
// matrix is deterministic, which is what the capacity experiment's
// worker-count determinism rests on.
func BuildDemandMatrix(gws []Gateway, sats []orbit.Satellite, users []geo.LatLon, cfg DemandConfig, rng *rand.Rand) (*DemandMatrix, error) {
	if len(gws) == 0 {
		return nil, fmt.Errorf("traffic: no gateways")
	}
	if cfg.PerUserBps <= 0 {
		return nil, fmt.Errorf("traffic: per-user load %.0f bps must be positive", cfg.PerUserBps)
	}
	if cfg.WindowS <= 0 {
		return nil, fmt.Errorf("traffic: visibility window %.0f s must be positive", cfg.WindowS)
	}
	m := &DemandMatrix{}
	var lit []Gateway
	for _, g := range gws {
		passes, err := ground.PassSchedule(g.Pos, sats, cfg.TimeS, cfg.TimeS+cfg.WindowS, cfg.MinElevationDeg)
		if err != nil {
			return nil, fmt.Errorf("traffic: gateway %s: %w", g.ID, err)
		}
		if len(passes) > 0 {
			lit = append(lit, g)
			m.LitGateways = append(m.LitGateways, g.ID)
		}
	}
	sort.Strings(m.LitGateways)
	if len(lit) == 0 {
		m.UnservedUsers = len(users)
		return m, nil
	}

	// Destination cities are sampled population-weighted, mirroring
	// sim.CityUsers's sampling of user positions.
	cities := sim.WorldCities()
	cum := make([]float64, len(cities))
	var totalPop float64
	for i, c := range cities {
		totalPop += c.PopM
		cum[i] = totalPop
	}
	// Precompute each city's nearest lit gateway once.
	cityEgress := make([]string, len(cities))
	for i, c := range cities {
		cityEgress[i] = nearestGateway(lit, c.Pos)
	}

	load := make(map[LinkID]float64)
	for _, u := range users {
		ingress := nearestGateway(lit, u)
		r := rng.Float64() * totalPop
		idx := sort.SearchFloat64s(cum, r)
		if idx >= len(cities) {
			idx = len(cities) - 1
		}
		egress := cityEgress[idx]
		if egress == ingress {
			m.LocalUsers++
			continue
		}
		load[LinkID{ingress, egress}] += cfg.PerUserBps
	}
	pairs := make([]LinkID, 0, len(load))
	for p := range load {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].From != pairs[b].From {
			return pairs[a].From < pairs[b].From
		}
		return pairs[a].To < pairs[b].To
	})
	for _, p := range pairs {
		m.Demands = append(m.Demands, Demand{Src: p.From, Dst: p.To, OfferedBps: load[p]})
	}
	return m, nil
}

// TopCityGateways sites count gateways at the most populous world cities
// (all of them when count exceeds sim.WorldCities), breaking population
// ties by name so the siting is deterministic. The capacity, users and
// campaign experiments share it as their fixed ground segment.
func TopCityGateways(count int) []Gateway {
	cities := sim.WorldCities()
	sort.Slice(cities, func(a, b int) bool {
		if cities[a].PopM != cities[b].PopM { //lint:allow floateq exact sort tie-break keeps gateway siting deterministic
			return cities[a].PopM > cities[b].PopM
		}
		return cities[a].Name < cities[b].Name
	})
	if count > len(cities) {
		count = len(cities)
	}
	gws := make([]Gateway, count)
	for i := 0; i < count; i++ {
		gws[i] = Gateway{ID: "gw-" + cities[i].Name, Pos: cities[i].Pos}
	}
	return gws
}

// NearestGatewayID returns the ID of the gateway closest to p on the
// surface, with nearestGateway's deterministic tie-break. The fluid
// aggregation layer uses it to map traffic-source cities onto lit
// gateways each epoch.
func NearestGatewayID(gws []Gateway, p geo.LatLon) string { return nearestGateway(gws, p) }

// nearestGateway returns the ID of the gateway closest to p on the surface,
// breaking distance ties by ID for determinism.
func nearestGateway(gws []Gateway, p geo.LatLon) string {
	best, bestD := "", 0.0
	for _, g := range gws {
		d := geo.SurfaceDistanceKm(g.Pos, p)
		if best == "" || d < bestD || (d == bestD && g.ID < best) { //lint:allow floateq exact distance tie broken by ID keeps gateway choice deterministic
			best, bestD = g.ID, d
		}
	}
	return best
}
