// Package core assembles the OpenSpace architecture: multiple independent
// satellite providers — each with its own spacecraft, ground stations,
// authentication server and traffic ledger — federated through the shared
// standards implemented by the lower-level packages (association, ISL
// topology, routing, authentication, economics).
//
// A core.Network is one OpenSpace deployment. It exposes the paper's
// end-to-end story (§2, Figure 1): users associate with whatever satellite
// is overhead, authenticate with their home ISP through the network, data
// is routed across heterogeneous, multi-owner ISLs to independently owned
// gateway ground stations, and every byte carried by someone else's
// infrastructure lands in cross-verifiable ledgers for settlement.
package core

import (
	"errors"
	"fmt"
	"reflect"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// SatelliteConfig describes one spacecraft in a provider's fleet.
type SatelliteConfig struct {
	ID       string
	Elements orbit.Elements
	HasLaser bool
	// MaxISLs caps simultaneous crosslinks (0 = unlimited).
	MaxISLs int
}

// GroundStationConfig describes one gateway station.
type GroundStationConfig struct {
	ID           string
	Pos          geo.LatLon
	BackhaulBps  float64
	PricePerGB   float64 // gateway fee for home traffic
	VisitorSurge float64 // visitor surcharge factor under load
}

// ProviderConfig describes one OpenSpace member firm.
type ProviderConfig struct {
	ID             string
	Satellites     []SatelliteConfig
	GroundStations []GroundStationConfig
	// CarriagePerGB is what this provider charges others for carrying a GB
	// across its infrastructure (§3: bilateral, here flat per provider).
	CarriagePerGB float64
}

// NetworkConfig assembles a federation.
type NetworkConfig struct {
	Providers []ProviderConfig
	// Topology feasibility rules; zero value upgraded to topo.DefaultConfig.
	Topo topo.Config
	// CertTTLS is the roaming-certificate validity in seconds.
	CertTTLS float64
	// Seed drives all randomness (key generation, nonces).
	Seed int64
	// PerHopProcessingS is the forwarding delay added per hop when
	// estimating delivery latency.
	PerHopProcessingS float64
}

// Validate reports whether the configuration is usable.
func (c NetworkConfig) Validate() error {
	if len(c.Providers) == 0 {
		return errors.New("core: at least one provider required")
	}
	seenProvider := map[string]bool{}
	seenNode := map[string]bool{}
	for _, p := range c.Providers {
		if p.ID == "" {
			return errors.New("core: provider ID required")
		}
		if seenProvider[p.ID] {
			return fmt.Errorf("core: duplicate provider %q", p.ID)
		}
		seenProvider[p.ID] = true
		if p.CarriagePerGB < 0 {
			return fmt.Errorf("core: provider %q carriage price negative", p.ID)
		}
		for _, s := range p.Satellites {
			if s.ID == "" {
				return fmt.Errorf("core: provider %q has satellite without ID", p.ID)
			}
			if seenNode[s.ID] {
				return fmt.Errorf("core: duplicate node ID %q", s.ID)
			}
			seenNode[s.ID] = true
			if err := s.Elements.Validate(); err != nil {
				return fmt.Errorf("core: satellite %q: %w", s.ID, err)
			}
			if s.MaxISLs < 0 {
				return fmt.Errorf("core: satellite %q MaxISLs negative", s.ID)
			}
		}
		for _, g := range p.GroundStations {
			if g.ID == "" {
				return fmt.Errorf("core: provider %q has station without ID", p.ID)
			}
			if seenNode[g.ID] {
				return fmt.Errorf("core: duplicate node ID %q", g.ID)
			}
			seenNode[g.ID] = true
			if !g.Pos.Valid() {
				return fmt.Errorf("core: station %q position invalid", g.ID)
			}
			if g.BackhaulBps <= 0 {
				return fmt.Errorf("core: station %q backhaul must be positive", g.ID)
			}
		}
	}
	if c.CertTTLS < 0 {
		return errors.New("core: certificate TTL negative")
	}
	if c.PerHopProcessingS < 0 {
		return errors.New("core: per-hop processing negative")
	}
	return nil
}

// withDefaults fills zero-valued fields. Topo.Workers and any explicit
// ISL wiring plan are orthogonal to the link-feasibility rules: a config
// that sets only those still gets the default feasibility rules.
func (c NetworkConfig) withDefaults() NetworkConfig {
	workers, static := c.Topo.Workers, c.Topo.StaticISLs
	c.Topo.Workers, c.Topo.StaticISLs = 0, nil
	if reflect.DeepEqual(c.Topo, topo.Config{}) {
		c.Topo = topo.DefaultConfig()
	}
	c.Topo.Workers, c.Topo.StaticISLs = workers, static
	if c.CertTTLS == 0 {
		c.CertTTLS = 24 * 3600
	}
	if c.PerHopProcessingS == 0 {
		c.PerHopProcessingS = 0.001
	}
	return c
}

// SplitConstellation partitions a constellation round-robin across n
// provider fleets — the standard way the experiments model independent
// firms whose uncoordinated fleets interleave in orbit.
func SplitConstellation(c *orbit.Constellation, n int, laserFraction float64) [][]SatelliteConfig {
	if n <= 0 {
		return nil
	}
	fleets := make([][]SatelliteConfig, n)
	laserEvery := 0
	if laserFraction > 0 {
		laserEvery = int(1 / laserFraction)
	}
	for i, s := range c.Satellites {
		cfg := SatelliteConfig{ID: s.ID, Elements: s.Elements}
		if laserEvery > 0 && i%laserEvery == 0 {
			cfg.HasLaser = true
		}
		fleets[i%n] = append(fleets[i%n], cfg)
	}
	return fleets
}

// IridiumFederation is the reference federation recipe: Iridium split
// round-robin across n providers, 30 % of satellites laser-equipped.
// Provider "prov-i" charges $0.20/GB carriage and owns one gateway "gs-i"
// at the i-th of six reference sites (cycling), with 10 Gbps backhaul, a
// $0.05/GB fee and a ×2 visitor surge. Callers may adjust the configs.
func IridiumFederation(n int) ([]ProviderConfig, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: providers %d must be positive", n)
	}
	c, err := orbit.Iridium().Build()
	if err != nil {
		return nil, err
	}
	sites := []geo.LatLon{ // seattle, nairobi, london, sydney, tokyo, sao paulo
		{Lat: 47.6, Lon: -122.3}, {Lat: -1.29, Lon: 36.82}, {Lat: 51.51, Lon: -0.13},
		{Lat: -33.87, Lon: 151.21}, {Lat: 35.68, Lon: 139.69}, {Lat: -23.55, Lon: -46.63},
	}
	fleets := SplitConstellation(c, n, 0.3)
	pcs := make([]ProviderConfig, n)
	for p := range pcs {
		pcs[p] = ProviderConfig{
			ID: fmt.Sprintf("prov-%d", p), Satellites: fleets[p], CarriagePerGB: 0.2,
			GroundStations: []GroundStationConfig{{
				ID: fmt.Sprintf("gs-%d", p), Pos: sites[p%len(sites)],
				BackhaulBps: 10e9, PricePerGB: 0.05, VisitorSurge: 2,
			}},
		}
	}
	return pcs, nil
}
