package orbit

import (
	"fmt"
	"math"
)

// This file generates the explicit inter-satellite wiring of
// mega-constellations. Iridium-scale systems can afford the geometric
// "link every visible neighbour" rule, but at Starlink scale every
// satellite sees hundreds of others and real systems instead fly a fixed
// +Grid: four terminals per satellite, two to the in-plane neighbours
// fore and aft, two to the matching slots in the adjacent planes. The LEO
// topology-design literature (arXiv 2402.08988) studies exactly this
// family; generating it explicitly keeps snapshot construction linear in
// the fleet size.

// ISLPair names the two satellites of one planned inter-satellite link.
type ISLPair struct {
	A, B string
}

// GridConfig tunes the +Grid wiring pattern laid over a Walker shell.
type GridConfig struct {
	// CrossSeam also wires plane P-1 back to plane 0. For a Walker Delta
	// (planes spread over 360°) the seam is an ordinary plane gap and
	// wiring it closes the grid into a torus. For a Walker Star the seam
	// separates counter-rotating planes whose relative velocity defeats
	// ISL pointing, so seam links are usually omitted.
	CrossSeam bool
}

// DefaultGrid wires the seam for Deltas and leaves it open for Stars —
// the conventional choice for each family.
func (w WalkerConfig) DefaultGrid() GridConfig {
	return GridConfig{CrossSeam: !w.Star}
}

// resolvedName returns the constellation name Build will use.
func (w WalkerConfig) resolvedName() string {
	if w.Name != "" {
		return w.Name
	}
	return fmt.Sprintf("walker-%d-%d-%d", w.TotalSats, w.Planes, w.PhasingFactor)
}

// SatID returns the identifier Build assigns to the satellite in the
// given plane and slot, so wiring plans and generated fleets agree by
// construction.
func (w WalkerConfig) SatID(plane, slot int) string {
	return fmt.Sprintf("%s-p%ds%d", w.resolvedName(), plane, slot)
}

// GridISLs returns the +Grid wiring of the shell: each satellite links to
// its intra-plane neighbours fore and aft (a ring per plane) and to the
// same slot in the adjacent plane(s). Every pair appears once, ordered
// (lower plane, lower slot) first, and the list is sorted by construction
// — plane-major, slot-minor — so the plan is deterministic.
//
// Degree is exactly four on a seam-wired Delta torus; seam-adjacent
// planes of a Star drop to degree three. Planes with fewer than three
// satellites degenerate: a two-satellite ring would duplicate its single
// edge, so only the one link is emitted.
func (w WalkerConfig) GridISLs(g GridConfig) ([]ISLPair, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	perPlane := w.TotalSats / w.Planes
	pairs := make([]ISLPair, 0, 2*w.TotalSats)
	for p := 0; p < w.Planes; p++ {
		for s := 0; s < perPlane; s++ {
			// Intra-plane ring: s → s+1, with the wrap link emitted by the
			// last slot. A two-slot plane has one distinct neighbour pair.
			if next := (s + 1) % perPlane; next != s && !(perPlane == 2 && s == 1) {
				pairs = append(pairs, ISLPair{A: w.SatID(p, s), B: w.SatID(p, next)})
			}
			// Cross-plane link to the same slot one plane over. The seam
			// (last plane → plane 0) is wired only when requested.
			if p+1 < w.Planes {
				pairs = append(pairs, ISLPair{A: w.SatID(p, s), B: w.SatID(p+1, s)})
			} else if g.CrossSeam && w.Planes > 2 {
				pairs = append(pairs, ISLPair{A: w.SatID(0, s), B: w.SatID(p, s)})
			}
		}
	}
	return pairs, nil
}

// Shell is one Walker shell of a multi-shell constellation plus its
// wiring choice.
type Shell struct {
	Walker WalkerConfig
	Grid   GridConfig
}

// MultiShell composes several Walker shells into one constellation — the
// Starlink deployment shape, and the multi-shell layouts the Small-World
// constellation work (arXiv 2508.14335) builds on. ISLs stay within each
// shell: inter-shell traffic transits the ground segment, which is what
// makes shells independently launchable by independent providers.
type MultiShell struct {
	Name   string
	Shells []Shell
}

// Build generates the concatenated constellation and its combined +Grid
// wiring plan. Shell names must be distinct (they prefix satellite IDs);
// empty names are assigned "<name>-s<index>".
func (m MultiShell) Build() (*Constellation, []ISLPair, error) {
	if len(m.Shells) == 0 {
		return nil, nil, fmt.Errorf("orbit: multishell %q has no shells", m.Name)
	}
	name := m.Name
	if name == "" {
		name = fmt.Sprintf("multishell-%d", len(m.Shells))
	}
	c := &Constellation{Name: name}
	var pairs []ISLPair
	seen := make(map[string]bool, len(m.Shells))
	for i, sh := range m.Shells {
		w := sh.Walker
		if w.Name == "" {
			w.Name = fmt.Sprintf("%s-s%d", name, i)
		}
		if seen[w.Name] {
			return nil, nil, fmt.Errorf("orbit: multishell %q: duplicate shell name %q", name, w.Name)
		}
		seen[w.Name] = true
		sc, err := w.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("orbit: multishell %q shell %d: %w", name, i, err)
		}
		sp, err := w.GridISLs(sh.Grid)
		if err != nil {
			return nil, nil, fmt.Errorf("orbit: multishell %q shell %d: %w", name, i, err)
		}
		c.Satellites = append(c.Satellites, sc.Satellites...)
		pairs = append(pairs, sp...)
	}
	return c, pairs, nil
}

// StarlinkShell returns the first-generation Starlink workhorse shell:
// 1584 satellites in 72 planes at 550 km and 53° inclination, a Walker
// Delta flown with +Grid laser ISLs.
func StarlinkShell() WalkerConfig {
	return WalkerConfig{
		Name:           "starlink-550",
		TotalSats:      1584,
		Planes:         72,
		PhasingFactor:  17,
		AltitudeKm:     550,
		InclinationDeg: 53,
	}
}

// StarlinkGen1 returns a three-shell Starlink-class composition: the two
// 53°-family workhorse shells plus the 70° shell that fills high
// latitudes — 3888 satellites total.
func StarlinkGen1() MultiShell {
	shells := []WalkerConfig{
		StarlinkShell(),
		{Name: "starlink-540", TotalSats: 1584, Planes: 72, PhasingFactor: 17,
			AltitudeKm: 540, InclinationDeg: 53.2},
		{Name: "starlink-570", TotalSats: 720, Planes: 36, PhasingFactor: 11,
			AltitudeKm: 570, InclinationDeg: 70},
	}
	m := MultiShell{Name: "starlink-gen1"}
	for _, w := range shells {
		m.Shells = append(m.Shells, Shell{Walker: w, Grid: w.DefaultGrid()})
	}
	return m
}

// SquareWalkerDelta sizes an as-square-as-possible Walker Delta for n
// satellites: the plane count is the divisor of n nearest √n (ties to the
// smaller), which keeps intra- and cross-plane ISL hop counts balanced.
// The phasing factor is 1 — the adjacent-plane stagger that minimises
// same-slot cross-plane distance churn. It is the sweep generator for
// scale experiments, where n varies widely and a hand-picked plane count
// per point would be noise.
func SquareWalkerDelta(n int, altitudeKm, inclinationDeg float64) (WalkerConfig, error) {
	if n <= 0 {
		return WalkerConfig{}, fmt.Errorf("orbit: square walker: %d satellites", n)
	}
	best := 1
	for p := 1; p*p <= n; p++ {
		if n%p == 0 {
			best = p
		}
	}
	// best is the largest divisor ≤ √n; its cofactor is the smallest ≥ √n.
	// Prefer the divisor closer to √n, measured multiplicatively.
	if co := n / best; float64(co)/math.Sqrt(float64(n)) < math.Sqrt(float64(n))/float64(best) {
		best = co
	}
	w := WalkerConfig{
		Name:           fmt.Sprintf("grid-%d", n),
		TotalSats:      n,
		Planes:         best,
		PhasingFactor:  min(1, best-1),
		AltitudeKm:     altitudeKm,
		InclinationDeg: inclinationDeg,
	}
	return w, w.Validate()
}
