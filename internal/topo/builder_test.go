package topo

import (
	"fmt"
	"reflect"
	"sync"
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
			checkSnapshot(t, snap)
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
			if from, to := edgeIDs(snap, e); !planned[from+"|"+to] {
				t.Fatalf("edge %s→%s not in the wiring plan", from, to)
			}
		}
	}
	if snap.EdgeCount() == 0 {
		t.Fatal("no ISLs built from the +Grid plan")
	}
}

// TestBuildPoolReuse holds pooled builds to builds on brand-new scratch.
// It interleaves one-shot Builds of deployments that differ in every
// dimension the scratch is sized by (geometric and +Grid wiring, ISLs
// off, MaxISLs caps, fleets growing from 10 to 300 satellites and
// shrinking back, 0 to 20 ground entities) with BuildTimeExpanded series
// at 1 and 4 workers, so each build takes scratch some other deployment
// left behind. Every snapshot's Index must deep-equal the reference. Four
// goroutines run the schedule at once, which the race detector checks.
func TestBuildPoolReuse(t *testing.T) {
	w, err := orbit.SquareWalkerDelta(60, 780, 53)
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
	off := DefaultConfig()
	off.ISLRangeKm, off.LaserRangeKm = 0, 0
	wide := DefaultConfig()
	wide.ISLRangeKm = 1e9
	entities := func(n int, seed int64) ([]GroundSpec, []UserSpec) {
		var gs []GroundSpec
		var us []UserSpec
		for i, p := range randomPoints(n, seed) {
			if i%2 == 0 {
				gs = append(gs, GroundSpec{ID: fmt.Sprintf("g%d", i), Provider: providerName(i % 3), Pos: p})
			} else {
				us = append(us, UserSpec{ID: fmt.Sprintf("u%d", i), Provider: providerName(i % 3), Pos: p})
			}
		}
		return gs, us
	}
	type deployment struct {
		name    string
		cfg     Config
		specs   []SatSpec
		grounds []GroundSpec
		users   []UserSpec
	}
	var deps []deployment
	add := func(name string, cfg Config, specs []SatSpec, nEntities int) {
		gs, us := entities(nEntities, int64(len(deps)+1))
		deps = append(deps, deployment{name, cfg, specs, gs, us})
	}
	add("iridium", DefaultConfig(), iridiumSpecs(t, 2, true), 3)
	add("grid", grid, gridSpecs, 20)
	add("random-10", DefaultConfig(), randomSpecs(10, 1), 0)
	add("random-120 isl off", off, randomSpecs(120, 2), 5)
	add("random-300", DefaultConfig(), randomSpecs(300, 3), 12)
	add("random-100 all pairs", wide, randomSpecs(100, 4), 2)
	add("random-40", DefaultConfig(), randomSpecs(40, 5), 1)

	times := []float64{0, 450, 1300}
	// fresh builds on a builder that never came from the pool.
	fresh := func(d deployment, ts float64) *Snapshot {
		var b builder
		b.reset(d.cfg, d.specs, d.grounds, d.users)
		return b.SnapshotAt(ts, b.nodes)
	}
	want := make([][]*Snapshot, len(deps))
	for i, d := range deps {
		for _, ts := range times {
			want[i] = append(want[i], fresh(d, ts))
		}
	}
	equal := func(label string, got, want *Snapshot) error {
		if got.TimeS != want.TimeS || !reflect.DeepEqual(got.Index(), want.Index()) {
			return fmt.Errorf("%s: pooled snapshot at %v differs from a fresh build", label, want.TimeS)
		}
		return nil
	}
	schedule := func(g int) error {
		for round := range 2 {
			for k := range deps {
				// Each goroutine and round walks the deployments in its
				// own rotation, so scratch passes between all of them.
				i := (k*(g+1) + round) % len(deps)
				d := deps[i]
				for ti, ts := range times {
					if err := equal(fmt.Sprintf("%s goroutine %d round %d", d.name, g, round), Build(ts, d.cfg, d.specs, d.grounds, d.users), want[i][ti]); err != nil {
						return err
					}
				}
				if i%3 != 0 {
					continue
				}
				for _, workers := range []int{1, 4} {
					cfg := d.cfg
					cfg.Workers = workers
					te, err := BuildTimeExpanded(times[0], times[2]-times[0], times[1]-times[0], cfg, d.specs, d.grounds, d.users)
					if err != nil {
						return err
					}
					for ti := range te.Snaps {
						if err := equal(fmt.Sprintf("%s series workers=%d", d.name, workers), te.Snaps[ti], fresh(d, te.Snaps[ti].TimeS)); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = schedule(g)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
