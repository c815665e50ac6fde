package topo

import (
	"fmt"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// TestTimeExpandedIncrementalEqualsFull pins the block contract: a
// BuildTimeExpanded series, whose blocks of steps share one builder and
// its scratch, must equal a from-scratch Build at every timestamp, for
// geometric and explicit +Grid wiring alike, and be invariant to the
// worker count. At the 20 s cadence consecutive snapshots of a block
// differ by a few links, so scratch a snapshot fails to clear (a stale
// candidate or link) shows up as a mismatch.
func TestTimeExpandedIncrementalEqualsFull(t *testing.T) {
	grounds := []GroundSpec{
		{ID: "g0", Provider: "A", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}},
		{ID: "g1", Provider: "B", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
	}
	users := []UserSpec{
		{ID: "u0", Provider: "A", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
	}

	w, err := orbit.SquareWalkerDelta(60, 780, 53)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	gridPairs, err := w.GridISLs(w.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	gridSpecs := make([]SatSpec, c.Len())
	for i, s := range c.Satellites {
		gridSpecs[i] = SatSpec{ID: s.ID, Provider: "A", Elements: s.Elements, HasLaser: true}
	}

	cases := []struct {
		name  string
		cfg   Config
		specs []SatSpec
	}{
		{"geometric-iridium", DefaultConfig(), iridiumSpecs(t, 2, true)},
		{"geometric-random", DefaultConfig(), randomSpecs(70, 5)},
		{"grid-walker", func() Config {
			cfg := DefaultConfig()
			cfg.StaticISLs = gridPairs
			return cfg
		}(), gridSpecs},
	}
	const startS, horizonS, intervalS = 0.0, 1200.0, 20.0
	for _, tc := range cases {
		tc.cfg.Workers = 1
		te, err := BuildTimeExpanded(startS, horizonS, intervalS, tc.cfg, tc.specs, grounds, users)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantSteps := int(horizonS/intervalS) + 1
		if len(te.Snaps) != wantSteps {
			t.Fatalf("%s: %d snapshots, want %d", tc.name, len(te.Snaps), wantSteps)
		}
		for i, snap := range te.Snaps {
			ts := startS + float64(i)*intervalS
			if snap.TimeS != ts {
				t.Fatalf("%s: snapshot %d at %v, want %v", tc.name, i, snap.TimeS, ts)
			}
			full := Build(ts, tc.cfg, tc.specs, grounds, users)
			assertSnapshotsEqual(t, fmt.Sprintf("%s step %d", tc.name, i), snap, full)
		}

		// Worker-count invariance: blocks are fixed-size and independent.
		tc.cfg.Workers = 4
		te4, err := BuildTimeExpanded(startS, horizonS, intervalS, tc.cfg, tc.specs, grounds, users)
		if err != nil {
			t.Fatalf("%s workers=4: %v", tc.name, err)
		}
		for i := range te.Snaps {
			assertSnapshotsEqual(t, fmt.Sprintf("%s workers step %d", tc.name, i), te4.Snaps[i], te.Snaps[i])
		}
	}
}

// TestStaticISLWiring checks the +Grid plan end to end on a snapshot:
// degree ≤ 4, all edges planned, unknown IDs ignored, caps honoured.
func TestStaticISLWiring(t *testing.T) {
	w, err := orbit.SquareWalkerDelta(36, 550, 53)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := w.GridISLs(w.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	planned := make(map[string]bool, len(pairs))
	for _, p := range pairs {
		planned[p.A+"|"+p.B] = true
		planned[p.B+"|"+p.A] = true
	}
	specs := make([]SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: true}
	}
	cfg := DefaultConfig()
	cfg.StaticISLs = append([]orbit.ISLPair{
		{A: "no-such-sat", B: specs[0].ID}, // ignored, not an error
		{A: specs[0].ID, B: specs[0].ID},   // self-loop, ignored
	}, pairs...)
	snap := Build(0, cfg, specs, nil, nil)
	for _, id := range snap.Nodes() {
		es := snap.Neighbors(id)
		if len(es) > 4 {
			t.Fatalf("sat %s has %d ISLs, +Grid caps at 4", id, len(es))
		}
		for _, e := range es {
			if !planned[e.From+"|"+e.To] {
				t.Fatalf("edge %s→%s not in the wiring plan", e.From, e.To)
			}
		}
	}
	if snap.EdgeCount() == 0 {
		t.Fatal("no ISLs built from the +Grid plan")
	}
}
