package core

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/geo"
)

// CoverageFraction returns the fraction of the Earth's surface covered at
// time t by the fleets of the given providers (all providers when the list
// is empty), using the exact spherical-cap union on a deterministic grid.
// This is the measurement behind the federation experiment (E4): individual
// small fleets cover patches; the union approaches global coverage.
func (n *Network) CoverageFraction(t float64, providerIDs []string, gridSize int) (float64, error) {
	caps, err := n.footprints(t, providerIDs)
	if err != nil {
		return 0, err
	}
	return geo.ExactCoverageFraction(caps, gridSize), nil
}

func (n *Network) footprints(t float64, providerIDs []string) ([]geo.Cap, error) {
	if len(providerIDs) == 0 {
		providerIDs = n.providerIDs
	}
	var caps []geo.Cap
	for _, pid := range providerIDs {
		p, ok := n.providers[pid]
		if !ok {
			return nil, fmt.Errorf("core: unknown provider %q", pid)
		}
		for _, s := range p.Satellites {
			pos := s.Elements.PositionECEF(t)
			caps = append(caps, geo.Cap{
				Center:        pos.LatLon(),
				AngularRadius: geo.FootprintAngularRadius(pos.AltitudeKm(), n.cfg.Topo.MinElevationDeg),
			})
		}
	}
	return caps, nil
}

// FederationGain compares each provider's solo coverage with the
// federation's union coverage at t — the quantitative form of §2's argument
// that "without meaningful collaboration, many smaller satellite networks
// would simply have coverage for a patchwork of regions".
type FederationGain struct {
	Solo  map[string]float64 // provider → own coverage fraction
	Union float64            // all providers together
	// BestSolo is the largest single-provider coverage.
	BestSolo float64
}

// FederationGain measures solo vs. federated coverage at t.
func (n *Network) FederationGain(t float64, gridSize int) (*FederationGain, error) {
	g := &FederationGain{Solo: map[string]float64{}}
	for _, pid := range n.providerIDs {
		f, err := n.CoverageFraction(t, []string{pid}, gridSize)
		if err != nil {
			return nil, err
		}
		g.Solo[pid] = f
		if f > g.BestSolo {
			g.BestSolo = f
		}
	}
	union, err := n.CoverageFraction(t, nil, gridSize)
	if err != nil {
		return nil, err
	}
	g.Union = union
	return g, nil
}

// ConnectivityStats summarises reachability between all users and all
// ground stations at t.
type ConnectivityStats struct {
	Pairs     int
	Reachable int
}

// Fraction returns the reachable share, 0 with no pairs.
func (c ConnectivityStats) Fraction() float64 {
	if c.Pairs == 0 {
		return 0
	}
	return float64(c.Reachable) / float64(c.Pairs)
}

// Connectivity measures user↔station reachability at t.
func (n *Network) Connectivity(t float64) ConnectivityStats {
	var stats ConnectivityStats
	snap := n.snapshotAt(t)
	if snap == nil {
		return stats
	}
	for uid := range n.users {
		for _, st := range n.stations {
			stats.Pairs++
			if _, err := n.route(snap, uid, st.ID); err == nil {
				stats.Reachable++
			}
		}
	}
	return stats
}
