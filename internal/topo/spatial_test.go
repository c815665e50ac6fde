package topo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/phy"
)

// bruteFeasibleISLs is the reference O(N²) feasibility scan the spatial
// index replaced: every pair within its class range with line of sight.
func bruteFeasibleISLs(cfg Config, sats []SatSpec, pos []geo.Vec3) [][2]int {
	var out [][2]int
	for i := 0; i < len(sats); i++ {
		for j := i + 1; j < len(sats); j++ {
			d := pos[i].DistanceKm(pos[j])
			maxRange := cfg.ISLRangeKm
			if sats[i].HasLaser && sats[j].HasLaser && cfg.LaserRangeKm > maxRange {
				maxRange = cfg.LaserRangeKm
			}
			if maxRange <= 0 || d > maxRange || !geo.LineOfSight(pos[i], pos[j]) {
				continue
			}
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// bruteVisibleSats is the reference O(grounds×sats) attach scan.
func bruteVisibleSats(cfg Config, ll geo.LatLon, pos []geo.Vec3) []int {
	var out []int
	for i := range pos {
		if geo.ElevationDeg(ll, pos[i]) >= cfg.MinElevationDeg {
			out = append(out, i)
		}
	}
	return out
}

// filterFeasible reduces a candidate pair list to the exactly feasible
// pairs, mirroring the builder's per-pair predicate.
func filterFeasible(cfg Config, sats []SatSpec, pos []geo.Vec3, cands [][2]int) [][2]int {
	var out [][2]int
	for _, p := range cands {
		i, j := p[0], p[1]
		d := pos[i].DistanceKm(pos[j])
		maxRange := cfg.ISLRangeKm
		if sats[i].HasLaser && sats[j].HasLaser && cfg.LaserRangeKm > maxRange {
			maxRange = cfg.LaserRangeKm
		}
		if maxRange <= 0 || d > maxRange || !geo.LineOfSight(pos[i], pos[j]) {
			continue
		}
		out = append(out, [2]int{i, j})
	}
	return out
}

// randomSpecs builds n satellites on random circular orbits with mixed
// altitudes, laser fits, and degree caps — the adversarial input class
// for the index (no grid regularity to hide behind).
func randomSpecs(n int, seed int64) []SatSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]SatSpec, n)
	for i := range specs {
		alt := 500 + rng.Float64()*800
		incl := rng.Float64() * 180
		specs[i] = SatSpec{
			ID:       fmt.Sprintf("r%d-%d", seed, i),
			Provider: providerName(i % 3),
			Elements: orbit.Circular(alt, incl, rng.Float64()*360, rng.Float64()*360),
			HasLaser: rng.Intn(2) == 0,
			MaxISLs:  rng.Intn(5), // 0 = uncapped
		}
	}
	return specs
}

// randomPoints returns n sites spread uniformly over the Earth's surface.
func randomPoints(n int, seed int64) []geo.LatLon {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.LatLon, n)
	for i := range pts {
		pts[i] = geo.LatLon{Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi, Lon: rng.Float64()*360 - 180}
	}
	return pts
}

// islRangeConfigs returns the default feasibility rules and two variants
// whose ISL query is far narrower than a ground query: ISLs switched off
// (both ranges 0) and a 10 km range.
func islRangeConfigs() []namedConfig {
	off, short := DefaultConfig(), DefaultConfig()
	off.ISLRangeKm, off.LaserRangeKm = 0, 0
	short.ISLRangeKm, short.LaserRangeKm = 10, 10
	return []namedConfig{{"default", DefaultConfig()}, {"isl off", off}, {"isl 10km", short}}
}

type namedConfig struct {
	name string
	cfg  Config
}

// TestIndexCandidatesMatchBruteForce is the property test of the spatial
// index: across ISL ranges, constellation sizes, seeds, and timestamps,
// filtering the builder's candidate lists, queried at its own radii and
// cell size, must yield exactly the brute-force feasible set, for both the
// ISL pair scan and the ground attach scan. Neither query may reach more
// than one cell out: 1 km cells under a 2 000 km ground query would visit
// about 10¹⁰ cells per ground entity.
func TestIndexCandidatesMatchBruteForce(t *testing.T) {
	grounds := []GroundSpec{
		{ID: "london", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}},
		{ID: "sydney", Pos: geo.LatLon{Lat: -33.87, Lon: 151.21}},
		{ID: "svalbard", Pos: geo.LatLon{Lat: 78.22, Lon: 15.63}}, // high latitude stresses polar crowding
		{ID: "quito", Pos: geo.LatLon{Lat: 0.35, Lon: -78.52}},
	}
	for _, nc := range islRangeConfigs() {
		for _, n := range []int{3, 25, 80, 220} {
			for _, seed := range []int64{1, 7, 42} {
				for _, tS := range []float64{0, 137.5, 4000} {
					specs := randomSpecs(n, seed)
					cfg := nc.cfg
					if seed%2 == 1 {
						cfg.MinElevationDeg = 25
					}
					b := newBuilder(cfg, specs, grounds, nil)
					for i := range specs {
						b.pos[i] = specs[i].Elements.PositionECEF(tS)
					}
					ix := satIndex{cellKm: b.cellKm}
					if rg, risl := ix.reach(b.attachKm), ix.reach(b.maxISLKm+1); rg > 1 || risl > 1 {
						t.Fatalf("%s n=%d seed=%d: %.0f km cells, ground query reaches %d cells, ISL query %d",
							nc.name, n, seed, b.cellKm, rg, risl)
					}
					b.refreshCandidates()

					want := bruteFeasibleISLs(cfg, specs, b.pos)
					got := filterFeasible(cfg, specs, b.pos, b.candISL)
					if !pairSetsEqual(got, want) {
						t.Fatalf("%s n=%d seed=%d t=%v: index feasible set %d pairs, brute force %d",
							nc.name, n, seed, tS, len(got), len(want))
					}

					for k, g := range grounds {
						var vis []int
						for _, i := range b.candGround[k] {
							if geo.ElevationDeg(g.Pos, b.pos[i]) >= cfg.MinElevationDeg {
								vis = append(vis, i)
							}
						}
						if wantVis := bruteVisibleSats(cfg, g.Pos, b.pos); !intSetsEqual(vis, wantVis) {
							t.Fatalf("%s n=%d seed=%d t=%v ground %s: index sees %d sats, brute force %d",
								nc.name, n, seed, tS, g.ID, len(vis), len(wantVis))
						}
					}
				}
			}
		}
	}
}

// TestISLsOffListsNoPairs builds with both ISL ranges 0: the builder must
// list no candidate pair, the snapshot must hold no ISL, and its ground
// and access links must be those of a build with ISLs on. A twin of one
// satellite, the one pair a zero range could admit, links only with ISLs
// on.
func TestISLsOffListsNoPairs(t *testing.T) {
	grounds := []GroundSpec{
		{ID: "london", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}},
		{ID: "svalbard", Pos: geo.LatLon{Lat: 78.22, Lon: 15.63}},
	}
	users := []UserSpec{{ID: "u0", Pos: geo.LatLon{Lat: 40.71, Lon: -74.01}}}
	specs := randomSpecs(220, 7)
	twin := specs[0]
	twin.ID = "twin"
	specs = append(specs, twin)
	on, off := DefaultConfig(), DefaultConfig()
	off.ISLRangeKm, off.LaserRangeKm = 0, 0
	groundLinks := func(s *Snapshot) (out []Edge, isls int) {
		for _, e := range s.Edges() {
			if e.Kind == LinkGround || e.Kind == LinkAccess {
				out = append(out, e)
			} else {
				isls++
			}
		}
		return out, isls
	}
	for _, tS := range []float64{0, 137.5, 4000} {
		b := newBuilder(off, specs, grounds, users)
		offSnap := b.SnapshotAt(tS, b.nodes)
		if len(b.candISL) != 0 {
			t.Fatalf("t=%v: %d candidate ISL pairs with ISLs off, want 0", tS, len(b.candISL))
		}
		offGround, offISLs := groundLinks(offSnap)
		if offISLs != 0 {
			t.Fatalf("t=%v: %d ISL edges with ISLs off, want 0", tS, offISLs)
		}
		onSnap := Build(tS, on, specs, grounds, users)
		onGround, onISLs := groundLinks(onSnap)
		if onISLs == 0 || len(onGround) == 0 {
			t.Fatalf("t=%v: ISLs on built %d ISL and %d ground edges, want both > 0", tS, onISLs, len(onGround))
		}
		if !reflect.DeepEqual(offGround, onGround) {
			t.Fatalf("t=%v: ground links with ISLs off (%d) differ from ISLs on (%d)", tS, len(offGround), len(onGround))
		}
		if onSnap.Index().Arc(specs[0].ID, twin.ID) < 0 {
			t.Fatalf("t=%v: coincident twins unlinked with ISLs on", tS)
		}
	}
}

// TestBuildMatchesBruteForceSnapshot rebuilds full snapshots with a
// reference implementation of the original all-pairs algorithm and
// requires exact equality — the end-to-end form of the index property.
// The oracle always accepts ISLs shortest first, while the builder orders
// them only when some satellite has a MaxISLs cap; fleets with no cap at
// all, and fleets where only one satellite past the first is capped, hold
// both halves of that rule to the oracle.
// The +Grid case covers the explicit wiring plan, where the index serves
// only ground queries and its cells are as small as they get, under many
// ground stations and users; a ground query a tenth short of attachKm
// misses a satellite at one of its timestamps.
func TestBuildMatchesBruteForceSnapshot(t *testing.T) {
	type snapCase struct {
		name    string
		cfg     Config
		specs   []SatSpec
		grounds []GroundSpec
		users   []UserSpec
	}
	var cases []snapCase
	for _, nc := range islRangeConfigs() {
		for _, n := range []int{10, 60, 150} {
			cases = append(cases, snapCase{fmt.Sprintf("random %s n=%d", nc.name, n), nc.cfg, randomSpecs(n, int64(n)),
				[]GroundSpec{
					{ID: "g0", Provider: "A", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}},
					{ID: "g1", Provider: "B", Pos: geo.LatLon{Lat: -33.87, Lon: 151.21}},
				},
				[]UserSpec{{ID: "u0", Provider: "A", Pos: geo.LatLon{Lat: 40.71, Lon: -74.01}}}})
		}
	}
	allPairs := DefaultConfig()
	allPairs.ISLRangeKm = 1e9 // fig2b's rule: every pair with line of sight
	for _, nc := range []namedConfig{{"default", DefaultConfig()}, {"all pairs", allPairs}} {
		for _, n := range []int{40, 100} {
			uncapped := randomSpecs(n, int64(n)+1)
			for i := range uncapped {
				uncapped[i].MaxISLs = 0
			}
			oneCapped := slices.Clone(uncapped)
			oneCapped[n/2].MaxISLs = 1
			grounds := []GroundSpec{{ID: "g0", Provider: "A", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
			users := []UserSpec{{ID: "u0", Provider: "B", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
			cases = append(cases,
				snapCase{fmt.Sprintf("uncapped %s n=%d", nc.name, n), nc.cfg, uncapped, grounds, users},
				snapCase{fmt.Sprintf("one capped %s n=%d", nc.name, n), nc.cfg, oneCapped, grounds, users})
		}
	}

	w, err := orbit.SquareWalkerDelta(500, 550, 53)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	grid := snapCase{name: "grid n=500", cfg: DefaultConfig()}
	if grid.cfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Satellites {
		grid.specs = append(grid.specs, SatSpec{ID: s.ID, Provider: providerName(i % 2), Elements: s.Elements, HasLaser: true})
	}
	for i, p := range randomPoints(60, 3) {
		if i%3 == 0 {
			grid.users = append(grid.users, UserSpec{ID: fmt.Sprintf("u%d", i), Provider: providerName(i % 2), Pos: p})
		} else {
			grid.grounds = append(grid.grounds, GroundSpec{ID: fmt.Sprintf("g%d", i), Provider: providerName(i % 2), Pos: p})
		}
	}
	cases = append(cases, grid)

	for _, sc := range cases {
		for _, at := range []float64{0, 300, 1000} {
			got := Build(at, sc.cfg, sc.specs, sc.grounds, sc.users)
			checkSnapshot(t, got)
			want := bruteForceBuild(t, at, sc.cfg, sc.specs, sc.grounds, sc.users)
			assertSnapshotsEqual(t, fmt.Sprintf("%s t=%v", sc.name, at), got, want)
		}
	}
}

// bruteForceBuild reimplements snapshot assembly with the original
// quadratic scans, as the oracle for TestBuildMatchesBruteForceSnapshot.
// With cfg.StaticISLs set, the ISL candidates are the plan's pairs between
// known, distinct satellites instead of all pairs. It hands the result to
// NewSnapshot, so the oracle never depends on how a snapshot stores its
// graph.
func bruteForceBuild(tb testing.TB, at float64, cfg Config, sats []SatSpec, grounds []GroundSpec, users []UserSpec) *Snapshot {
	tb.Helper()
	var nodes []Node
	var edges []Edge
	// a and b are positions in nodes: satellites, then grounds, then users.
	addBidirectional := func(a, b int32, kind LinkKind, distKm, capBps float64, cross bool) {
		delay := distKm / phy.SpeedOfLightKmS
		edges = append(edges,
			Edge{From: a, To: b, Kind: kind, DistanceKm: distKm, DelayS: delay, CapacityBps: capBps, CrossOwner: cross},
			Edge{From: b, To: a, Kind: kind, DistanceKm: distKm, DelayS: delay, CapacityBps: capBps, CrossOwner: cross})
	}
	pos := make([]geo.Vec3, len(sats))
	for i, sp := range sats {
		pos[i] = sp.Elements.PositionECEF(at)
		nodes = append(nodes, Node{ID: sp.ID, Kind: KindSatellite, Provider: sp.Provider, Pos: pos[i], HasLaser: sp.HasLaser})
	}
	for _, g := range grounds {
		nodes = append(nodes, Node{ID: g.ID, Kind: KindGroundStation, Provider: g.Provider, Pos: g.Pos.Vec3(0)})
	}
	for _, u := range users {
		nodes = append(nodes, Node{ID: u.ID, Kind: KindUser, Provider: u.Provider, Pos: u.Pos.Vec3(0)})
	}
	type pair struct {
		i, j int
		d    float64
	}
	var feasible [][2]int
	if len(cfg.StaticISLs) == 0 {
		feasible = bruteFeasibleISLs(cfg, sats, pos)
	} else {
		idx := make(map[string]int, len(sats))
		for i, sp := range sats {
			idx[sp.ID] = i
		}
		planned := map[[2]int]bool{}
		for _, pr := range cfg.StaticISLs {
			i, okA := idx[pr.A]
			j, okB := idx[pr.B]
			if okA && okB && i != j {
				planned[[2]int{min(i, j), max(i, j)}] = true
			}
		}
		plan := make([][2]int, 0, len(planned))
		for p := range planned {
			plan = append(plan, p)
		}
		feasible = filterFeasible(cfg, sats, pos, plan)
	}
	var pairs []pair
	for _, p := range feasible {
		pairs = append(pairs, pair{p[0], p[1], pos[p[0]].DistanceKm(pos[p[1]])})
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].d != pairs[b].d {
			return pairs[a].d < pairs[b].d
		}
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	degree := map[int]int{}
	limit := func(i int) int {
		if sats[i].MaxISLs <= 0 {
			return int(^uint(0) >> 1)
		}
		return sats[i].MaxISLs
	}
	for _, p := range pairs {
		if degree[p.i] >= limit(p.i) || degree[p.j] >= limit(p.j) {
			continue
		}
		degree[p.i]++
		degree[p.j]++
		kind, capBps := LinkISLRF, cfg.RFISLBps
		if sats[p.i].HasLaser && sats[p.j].HasLaser && p.d <= cfg.LaserRangeKm {
			kind, capBps = LinkISLLaser, cfg.LaserISLBps
		}
		addBidirectional(int32(p.i), int32(p.j), kind, p.d, capBps,
			sats[p.i].Provider != sats[p.j].Provider)
	}
	attach := func(at int, provider string, ll geo.LatLon, kind LinkKind, capBps float64) {
		gp := ll.Vec3(0)
		for i, sat := range sats {
			if geo.ElevationDeg(ll, pos[i]) < cfg.MinElevationDeg {
				continue
			}
			addBidirectional(int32(at), int32(i), kind, gp.DistanceKm(pos[i]), capBps, provider != sat.Provider)
		}
	}
	for k, g := range grounds {
		attach(len(sats)+k, g.Provider, g.Pos, LinkGround, cfg.GroundBps)
	}
	for k, u := range users {
		attach(len(sats)+len(grounds)+k, u.Provider, u.Pos, LinkAccess, cfg.AccessBps)
	}
	s, err := NewSnapshot(at, nodes, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// assertSnapshotsEqual requires two snapshots to agree exactly: same
// nodes (all fields), same adjacency lists (all edge fields, same order).
func assertSnapshotsEqual(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.TimeS != want.TimeS {
		t.Fatalf("%s: time %v != %v", label, got.TimeS, want.TimeS)
	}
	gids, wids := got.Nodes(), want.Nodes()
	if len(gids) != len(wids) {
		t.Fatalf("%s: %d nodes != %d", label, len(gids), len(wids))
	}
	for k, id := range gids {
		if id != wids[k] {
			t.Fatalf("%s: node %d: %q != %q", label, k, id, wids[k])
		}
		if gn, wn := *got.Node(id), *want.Node(id); gn != wn {
			t.Fatalf("%s: node %q: %+v != %+v", label, id, gn, wn)
		}
		ge, we := got.Neighbors(id), want.Neighbors(id)
		if len(ge) != len(we) {
			t.Fatalf("%s: node %q: %d edges != %d", label, id, len(ge), len(we))
		}
		for x := range ge {
			if ge[x] != we[x] {
				t.Fatalf("%s: node %q edge %d: %+v != %+v", label, id, x, ge[x], we[x])
			}
		}
	}
	if got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("%s: %d edges != %d", label, got.EdgeCount(), want.EdgeCount())
	}
}

func pairSetsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p [2]int) [2]int {
		if p[0] > p[1] {
			return [2]int{p[1], p[0]}
		}
		return p
	}
	sa, sb := make([][2]int, len(a)), make([][2]int, len(b))
	for i := range a {
		sa[i], sb[i] = key(a[i]), key(b[i])
	}
	less := func(s [][2]int) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i][0] != s[j][0] {
				return s[i][0] < s[j][0]
			}
			return s[i][1] < s[j][1]
		}
	}
	sort.Slice(sa, less(sa))
	sort.Slice(sb, less(sb))
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

func intSetsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}
