// Package regulation models the regulatory landscape the paper's §5(3)
// identifies as an open problem for a distributed global satellite network:
// "Different countries and regions have varying policies on satellite
// communications, such as different spectrum allocation policies, as well
// as independent licensing requirements", and "the question of how to
// maintain a user's data privacy requirements when their traffic is routed
// to a groundstation outside their region".
//
// Three mechanisms:
//
//   - Atlas: a coarse partition of the Earth into named regulatory regions.
//   - Policy: per-region rules — data-residency (which regions a user's
//     traffic may downlink in), ground-spectrum allocations, and provider
//     service licenses.
//   - ResidencyFilter: a routing-cost wrapper that makes gateway links in
//     disallowed regions unusable, so paths honour privacy law by
//     construction.
package regulation

import (
	"errors"
	"fmt"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/phy"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// Box is an axis-aligned latitude/longitude rectangle. Boxes must not span
// the antimeridian; use two boxes instead.
type Box struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// Contains reports whether p falls inside the box.
func (b Box) Contains(p geo.LatLon) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Valid reports whether the box is well-formed.
func (b Box) Valid() bool {
	return b.MinLat <= b.MaxLat && b.MinLon <= b.MaxLon &&
		b.MinLat >= -90 && b.MaxLat <= 90 && b.MinLon >= -180 && b.MaxLon <= 180
}

// Region is one named regulatory jurisdiction.
type Region struct {
	Name  string
	Boxes []Box
}

// Contains reports whether p falls inside any of the region's boxes.
func (r Region) Contains(p geo.LatLon) bool {
	for _, b := range r.Boxes {
		if b.Contains(p) {
			return true
		}
	}
	return false
}

// Atlas is an ordered region list; RegionOf returns the first match.
type Atlas struct {
	regions []Region
}

// NewAtlas validates and assembles an atlas.
func NewAtlas(regions []Region) (*Atlas, error) {
	seen := map[string]bool{}
	for _, r := range regions {
		if r.Name == "" {
			return nil, errors.New("regulation: region name required")
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("regulation: duplicate region %q", r.Name)
		}
		seen[r.Name] = true
		if len(r.Boxes) == 0 {
			return nil, fmt.Errorf("regulation: region %q has no area", r.Name)
		}
		for _, b := range r.Boxes {
			if !b.Valid() {
				return nil, fmt.Errorf("regulation: region %q has invalid box %+v", r.Name, b)
			}
		}
	}
	return &Atlas{regions: regions}, nil
}

// RegionOf returns the region containing p, or "" when unclaimed
// (international waters).
func (a *Atlas) RegionOf(p geo.LatLon) string {
	for _, r := range a.regions {
		if r.Contains(p) {
			return r.Name
		}
	}
	return ""
}

// Regions returns the region names in atlas order.
func (a *Atlas) Regions() []string {
	out := make([]string, len(a.regions))
	for i, r := range a.regions {
		out[i] = r.Name
	}
	return out
}

// DefaultAtlas returns a coarse continental partition — enough to exercise
// every cross-region rule without pretending to be a border dataset.
func DefaultAtlas() *Atlas {
	a, err := NewAtlas([]Region{
		{Name: "north-america", Boxes: []Box{{MinLat: 7, MaxLat: 84, MinLon: -169, MaxLon: -52}}},
		{Name: "south-america", Boxes: []Box{{MinLat: -56, MaxLat: 7, MinLon: -82, MaxLon: -34}}},
		{Name: "europe", Boxes: []Box{{MinLat: 36, MaxLat: 72, MinLon: -11, MaxLon: 40}}},
		{Name: "africa", Boxes: []Box{{MinLat: -35, MaxLat: 36, MinLon: -18, MaxLon: 52}}},
		{Name: "asia", Boxes: []Box{{MinLat: 0, MaxLat: 78, MinLon: 40, MaxLon: 180}}},
		{Name: "oceania", Boxes: []Box{{MinLat: -48, MaxLat: 0, MinLon: 110, MaxLon: 180}}},
	})
	if err != nil {
		panic(err) // static data; unreachable
	}
	return a
}

// Policy is the rule set a federation operates under.
type Policy struct {
	// Residency maps a user's region to the regions where their traffic
	// may reach the ground. Regions not present have no restriction.
	Residency map[string][]string
	// Spectrum maps a region to its allowed ground-link bands. Regions not
	// present allow every band.
	Spectrum map[string][]phy.Band
	// Licenses maps provider → regions it is licensed to serve users in.
	// Providers not present are unlicensed everywhere.
	Licenses map[string]map[string]bool
}

// MayDownlink reports whether traffic of a user in userRegion may reach the
// ground in gsRegion. Unclaimed regions ("") are unrestricted.
func (p Policy) MayDownlink(userRegion, gsRegion string) bool {
	if userRegion == "" {
		return true
	}
	allowed, ok := p.Residency[userRegion]
	if !ok {
		return true
	}
	for _, r := range allowed {
		if r == gsRegion {
			return true
		}
	}
	return false
}

// BandAllowed reports whether a ground link may use the band in the region.
func (p Policy) BandAllowed(region string, band phy.Band) bool {
	if region == "" {
		return true
	}
	bands, ok := p.Spectrum[region]
	if !ok {
		return true
	}
	for _, b := range bands {
		if b == band {
			return true
		}
	}
	return false
}

// Licensed reports whether the provider may serve users in the region.
func (p Policy) Licensed(provider, region string) bool {
	if region == "" {
		return true
	}
	regions, ok := p.Licenses[provider]
	if !ok {
		return false
	}
	return regions[region]
}

// ResidencyFilter wraps a routing cost function so that ground-station
// links landing in regions the user's traffic may not downlink in become
// unusable — §5(3)'s privacy constraint enforced at path computation.
func ResidencyFilter(base routing.CostFunc, atlas *Atlas, policy Policy, userRegion string) routing.CostFunc {
	return func(e topo.Edge, s *topo.Snapshot) (float64, bool) {
		if e.Kind == topo.LinkGround {
			gs := s.NodeAt(e.To)
			if gs.Kind != topo.KindGroundStation {
				gs = s.NodeAt(e.From)
			}
			if gs.Kind == topo.KindGroundStation {
				region := atlas.RegionOf(gs.Pos.LatLon())
				if !policy.MayDownlink(userRegion, region) {
					return 0, false
				}
			}
		}
		return base(e, s)
	}
}
