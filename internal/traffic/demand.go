package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/openspace-project/openspace/internal/geo"
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
	// eligible to carry traffic — when at least one satellite is above
	// its mask at a 30 s instant of [TimeS, TimeS+WindowS] (litGateways).
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
//   - Gateways are lit when litGateways finds a satellite above their mask
//     at some sampled instant of the config's window — the visibility
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
	endS := cfg.TimeS + cfg.WindowS
	switch {
	case math.IsNaN(endS) || math.IsInf(endS, 0):
		return nil, fmt.Errorf("traffic: visibility window [%g s, %g s] must be finite", cfg.TimeS, endS)
	case cfg.WindowS <= 0:
		return nil, fmt.Errorf("traffic: visibility window %.0f s must be positive", cfg.WindowS)
	case endS <= cfg.TimeS:
		return nil, fmt.Errorf("traffic: visibility window %g s vanishes in rounding at %g s", cfg.WindowS, cfg.TimeS)
	}
	obs := make([]geo.Vec3, len(gws))
	for i, g := range gws {
		if !g.Pos.Valid() {
			return nil, fmt.Errorf("traffic: gateway %s: invalid position %v", g.ID, g.Pos)
		}
		obs[i] = g.Pos.Vec3(0)
	}
	var lit []Gateway
	for i, ok := range litGateways(obs, sats, cfg.TimeS, endS, cfg.MinElevationDeg) {
		if ok {
			lit = append(lit, gws[i])
		}
	}
	return assignDemands(lit, users, cfg.PerUserBps, rng), nil
}

// litGateways reports, for each gateway's Earth-centred position obs[g],
// whether some satellite is at or above the elevation mask at one of the
// instants startS, startS+30, startS+60, … (accumulated by repeated
// addition), the last one clipped to endS. No LEO pass fits between two
// of them. orbit.Elements.ContactWindows samples the same instants at a
// 30 s step and reports a window exactly when one of them is visible, so
// a gateway is lit exactly when some satellite has a contact window over
// it. Each satellite is propagated once per instant; the scan stops once
// every gateway is lit, or at an instant too large for the step to
// advance.
func litGateways(obs []geo.Vec3, sats []orbit.Satellite, startS, endS, minElevationDeg float64) []bool {
	lit, dark := make([]bool, len(obs)), len(obs)
	for t := startS; ; {
		for _, s := range sats {
			pos := s.Elements.PositionECEF(t)
			for g, o := range obs {
				if !lit[g] && geo.ElevationDegFrom(o, pos) >= minElevationDeg {
					lit[g] = true
					dark--
				}
			}
			if dark == 0 {
				return lit
			}
		}
		next := min(t+30, endS)
		if t >= endS || next <= t { // past the end, or the step no longer advances t
			return lit
		}
		t = next
	}
}

// assignDemands routes every user's load from its nearest lit gateway to
// the lit gateway nearest a population-weighted destination city drawn
// from rng.
func assignDemands(lit []Gateway, users []geo.LatLon, perUserBps float64, rng *rand.Rand) *DemandMatrix {
	m := &DemandMatrix{}
	for _, g := range lit {
		m.LitGateways = append(m.LitGateways, g.ID)
	}
	sort.Strings(m.LitGateways)
	if len(lit) == 0 {
		m.UnservedUsers = len(users)
		return m
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
		load[LinkID{ingress, egress}] += perUserBps
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
	return m
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
