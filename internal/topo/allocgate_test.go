package topo

import (
	"math/rand"
	"os"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// allocGate skips unless the zero-allocation gates are explicitly enabled
// (OPENSPACE_ALLOC_GATE=1, as CI's alloc-gate step does).
func allocGate(t *testing.T) {
	t.Helper()
	if os.Getenv("OPENSPACE_ALLOC_GATE") == "" {
		t.Skip("set OPENSPACE_ALLOC_GATE=1 to run the zero-allocation gates")
	}
}

// TestAllocGateFeasibleISLs pins the //lint:hotpath contract on
// builder.feasibleISLs: with positions and candidate lists in place, the
// range/line-of-sight filter and its deterministic sort must reuse the
// builder's scratch and allocate nothing. The fixture's satellites carry
// MaxISLs caps, since the sort runs only when some satellite is capped.
func TestAllocGateFeasibleISLs(t *testing.T) {
	allocGate(t)
	b := newBuilder(DefaultConfig(), randomSpecs(128, 3), nil, nil)
	if !b.capped {
		t.Fatal("fixture has no MaxISLs cap; the gate would skip the sort")
	}
	b.SnapshotAt(0, b.nodes) // fills positions, builds candidate lists, sizes the scratch
	cands := b.candISL
	if b.staticMode {
		cands = b.staticPairs
	}
	b.feasibleISLs(cands)
	nWarm := len(b.feasible)
	if nWarm == 0 {
		t.Fatal("fixture produced no feasible ISL pairs; gate would be vacuous")
	}
	run := func() {
		b.feasibleISLs(cands)
		if got := len(b.feasible); got != nWarm {
			t.Fatalf("feasible set size changed across runs: %d → %d", nWarm, got)
		}
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("feasibleISLs allocates %.2f per snapshot, want 0", avg)
	}
}

// TestAllocGateBuild holds a repeat one-shot Build to the snapshot it
// returns: the Snapshot, its node list, the Off and To rows and the edge
// list. The builder, its spatial index, the resolved +Grid wiring plan and
// every other piece of scratch come from the pool, and the node template
// becomes the node list. It checks a geometric Iridium build, a +Grid
// Walker build wired by Config.StaticISLs, and fig2b's shape: 100 random
// circular satellites, uncapped, whose 10⁹ km ISL range links every pair
// with line of sight.
func TestAllocGateBuild(t *testing.T) {
	allocGate(t)
	grounds := []GroundSpec{{ID: "gs", Provider: "p", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	users := []UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	w, err := orbit.SquareWalkerDelta(500, 550, 53)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultConfig()
	if grid.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		t.Fatal(err)
	}
	gridSpecs := make([]SatSpec, c.Len())
	for i, s := range c.Satellites {
		gridSpecs[i] = SatSpec{ID: s.ID, Provider: providerName(i % 2), Elements: s.Elements, HasLaser: true}
	}
	fig2b := DefaultConfig()
	fig2b.ISLRangeKm = 1e9
	random := orbit.RandomCircular(100, 780, rand.New(rand.NewSource(1)))
	fig2bSpecs := make([]SatSpec, random.Len())
	for i, s := range random.Satellites {
		fig2bSpecs[i] = SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		specs []SatSpec
	}{
		{"iridium", DefaultConfig(), iridiumSpecs(t, 1, false)},
		{"grid-500", grid, gridSpecs},
		{"fig2b", fig2b, fig2bSpecs},
	} {
		if s := Build(0, tc.cfg, tc.specs, grounds, users); s.EdgeCount() == 0 {
			t.Fatalf("%s: fixture built no edges; gate would be vacuous", tc.name)
		}
		if avg := testing.AllocsPerRun(100, func() { Build(0, tc.cfg, tc.specs, grounds, users) }); avg > 5 {
			t.Fatalf("%s: a repeat Build allocates %.2f times, want at most the snapshot's 5", tc.name, avg)
		}
	}
}
