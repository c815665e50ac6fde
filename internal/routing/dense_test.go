package routing

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// denseCase is one snapshot plus the endpoints the differential test
// routes between.
type denseCase struct {
	name  string
	snap  *topo.Snapshot
	pairs [][2]string
}

// gridSnapshot builds an n-satellite +Grid Walker Delta with half the
// fleet laser-equipped, two providers, four gateways and two users.
func gridSnapshot(tb testing.TB, n int) *topo.Snapshot {
	tb.Helper()
	w, err := orbit.SquareWalkerDelta(n, 550, 53)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := topo.DefaultConfig()
	if cfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		tb.Fatal(err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: fmt.Sprintf("p%d", i%2), Elements: s.Elements, HasLaser: i%4 != 0}
	}
	grounds := []topo.GroundSpec{
		{ID: "g0", Provider: "p0", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}},
		{ID: "g1", Provider: "p1", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}},
		{ID: "g2", Provider: "p0", Pos: geo.LatLon{Lat: 51.5, Lon: -0.1}},
		{ID: "g3", Provider: "p1", Pos: geo.LatLon{Lat: -33.9, Lon: 151.2}},
	}
	users := []topo.UserSpec{
		{ID: "u0", Provider: "p0", Pos: geo.LatLon{Lat: 40.7, Lon: -74.0}},
		{ID: "u1", Provider: "p1", Pos: geo.LatLon{Lat: 35.7, Lon: 139.7}},
	}
	return topo.Build(0, cfg, specs, grounds, users)
}

// testMask fails a fixed set of nodes and undirected links.
type testMask struct {
	nodes map[string]bool
	links map[[2]string]bool
}

func (m testMask) NodeDown(id string) bool { return m.nodes[id] }
func (m testMask) EdgeDown(a, b string) bool {
	return m.links[[2]string{a, b}] || m.links[[2]string{b, a}]
}
func (m testMask) Empty() bool { return len(m.nodes) == 0 && len(m.links) == 0 }

// faulted overlays a deterministic failure pattern: every 13th satellite
// down and every 7th ISL of the survivors cut.
func faulted(s *topo.Snapshot) *topo.Snapshot {
	m := testMask{nodes: map[string]bool{}, links: map[[2]string]bool{}}
	ids := s.Nodes()
	for i, id := range ids {
		if s.Node(id).Kind == topo.KindSatellite && i%13 == 5 {
			m.nodes[id] = true
		}
	}
	n := 0
	for _, id := range ids {
		for _, e := range s.Neighbors(id) {
			if e.Kind == topo.LinkISLLaser || e.Kind == topo.LinkISLRF {
				if n++; n%7 == 0 {
					from, to := edgeIDs(s, e)
					m.links[[2]string{from, to}] = true
				}
			}
		}
	}
	return s.Overlay(m)
}

// randomSnapshot builds a dense line-of-sight mesh over randomly placed
// circular orbits with two gateways and a user.
func randomSnapshot(rng *rand.Rand, n int) *topo.Snapshot {
	cfg := topo.DefaultConfig()
	cfg.ISLRangeKm = 1e9
	cfg.MinElevationDeg = 0
	c := orbit.RandomCircular(n, 780, rng)
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: fmt.Sprintf("p%d", i%3), Elements: s.Elements, HasLaser: i%2 == 0}
	}
	ll := func() geo.LatLon { return geo.LatLon{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*360 - 180} }
	grounds := []topo.GroundSpec{{ID: "g0", Provider: "p0", Pos: ll()}, {ID: "g1", Provider: "p1", Pos: ll()}}
	users := []topo.UserSpec{{ID: "u0", Provider: "p2", Pos: ll()}}
	return topo.Build(0, cfg, specs, grounds, users)
}

// denseCosts are the cost functions the differential test runs: maximal
// ties, pure latency, access links excluded (gateway transit), and a QoS
// policy whose bandwidth floor makes some edges unusable.
func denseCosts() map[string]CostFunc {
	qos := ClassInteractive.Policy()
	qos.MinCapacityBps = 20e6
	return map[string]CostFunc{
		"hop":     HopCost(),
		"latency": LatencyCost(0),
		"transit": func(e topo.Edge, _ *topo.Snapshot) (float64, bool) {
			if e.Kind == topo.LinkAccess {
				return 0, false
			}
			return e.DelayS, true
		},
		"qos": qos.Cost(),
	}
}

func denseCases(t *testing.T) []denseCase {
	sizes := []int{200, 500}
	if testing.Short() {
		sizes = []int{200}
	}
	var cases []denseCase
	for _, n := range sizes {
		s := gridSnapshot(t, n)
		ids := s.Nodes()
		pairs := [][2]string{{"g0", "g1"}, {"u0", "g2"}, {"g3", "u1"}, {ids[3], ids[len(ids)/2]}, {"g2", "g2"}, {"u0", "u1"},
			{"nope", "g0"}, {"g0", "nope"}}
		cases = append(cases,
			denseCase{name: fmt.Sprintf("grid-%d", n), snap: s, pairs: pairs},
			denseCase{name: fmt.Sprintf("grid-%d-faults", n), snap: faulted(s), pairs: pairs})
	}
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 4; trial++ {
		s := randomSnapshot(rng, 24)
		ids := s.Nodes()
		cases = append(cases, denseCase{
			name:  fmt.Sprintf("random-%d", trial),
			snap:  s,
			pairs: [][2]string{{"u0", "g0"}, {"g0", "g1"}, {ids[0], ids[len(ids)-1]}},
		})
	}
	return cases
}

// samePath requires identical node and edge-position sequences and
// bit-equal float fields.
func samePath(got, want Path) bool {
	if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Arcs, want.Arcs) ||
		got.Hops != want.Hops || got.CrossOwnerHops != want.CrossOwnerHops {
		return false
	}
	for _, f := range [][2]float64{
		{got.Cost, want.Cost}, {got.DelayS, want.DelayS},
		{got.DistanceKm, want.DistanceKm}, {got.MinCapacityBps, want.MinCapacityBps},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return true
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error()
}

func checkPaths(t *testing.T, label string, got []Path, gotErr error, want []Path, wantErr error) {
	t.Helper()
	if !sameErr(gotErr, wantErr) {
		t.Fatalf("%s: error %v, oracle %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if !samePath(got[i], want[i]) {
			t.Fatalf("%s: path %d = %v (cost %v), oracle %v (cost %v)",
				label, i, got[i].Nodes, got[i].Cost, want[i].Nodes, want[i].Cost)
		}
	}
}

// TestDenseMatchesOracle pins the dense searcher to the map-based
// implementation it replaced: identical node sequences, edge positions
// and bit-equal costs from ShortestPath, KShortestPaths (k = 1…8) and
// DisjointPaths on +Grid shells with and without failures, dense random
// meshes, and cost functions from all-ties hop counting to bandwidth
// floors; errors, unknown endpoints included, must carry the same text. Yen's first k paths do not depend on k, so each dense k is
// checked against the first k of one oracle run at k = 8.
func TestDenseMatchesOracle(t *testing.T) {
	const maxK = 8
	full := 0 // pairs with a full set of maxK Yen paths
	for _, c := range denseCases(t) {
		for cname, cost := range denseCosts() {
			for _, pr := range c.pairs {
				src, dst := pr[0], pr[1]
				label := fmt.Sprintf("%s/%s %s→%s", c.name, cname, src, dst)

				want, wantErr := oracleShortestPath(c.snap, src, dst, cost)
				got, gotErr := ShortestPath(c.snap, src, dst, cost)
				if wantErr != nil {
					checkPaths(t, label+" ShortestPath", nil, gotErr, nil, wantErr)
				} else {
					checkPaths(t, label+" ShortestPath", []Path{got}, gotErr, []Path{want}, wantErr)
				}

				wantK, wantKErr := oracleKShortestPaths(c.snap, src, dst, cost, maxK)
				if len(wantK) == maxK {
					full++
				}
				for k := 1; k <= maxK; k++ {
					gotK, gotKErr := KShortestPaths(c.snap, src, dst, cost, k)
					prefix := wantK
					if len(prefix) > k {
						prefix = prefix[:k]
					}
					checkPaths(t, fmt.Sprintf("%s KShortestPaths k=%d", label, k), gotK, gotKErr, prefix, wantKErr)
				}

				for _, k := range []int{1, 3, maxK} {
					wantD, wantDErr := oracleDisjointPaths(c.snap, src, dst, cost, k)
					gotD, gotDErr := DisjointPaths(c.snap, src, dst, cost, k)
					checkPaths(t, fmt.Sprintf("%s DisjointPaths k=%d", label, k), gotD, gotDErr, wantD, wantDErr)
				}
			}
		}
	}
	t.Logf("%d pairs with %d Yen paths", full, maxK)
	if full < 20 {
		t.Fatalf("only %d pairs had %d Yen paths; the cases no longer exercise Yen", full, maxK)
	}
}

// allocGate skips unless the zero-allocation gates are explicitly enabled
// (OPENSPACE_ALLOC_GATE=1, as CI's alloc-gate step does).
func allocGate(t *testing.T) {
	t.Helper()
	if os.Getenv("OPENSPACE_ALLOC_GATE") == "" {
		t.Skip("set OPENSPACE_ALLOC_GATE=1 to run the zero-allocation gates")
	}
}

// TestAllocGateDenseSearch pins the //lint:hotpath contract on
// Graph.search: on warmed scratch, a search with a Yen-style edge ban,
// its tree walk, a full tree and a bounded search that its limit stops
// short of dst allocate nothing. Only turning a result into a Path, with
// its []string of node IDs, allocates.
func TestAllocGateDenseSearch(t *testing.T) {
	allocGate(t)
	s := gridSnapshot(t, 200)
	src, dst, err := endpoints(s.Index(), "g0", "g1")
	if err != nil {
		t.Fatal(err)
	}
	sr := NewGraph(s, LatencyCost(0))
	defer sr.Release()
	sr.begin()
	sr.next()
	if !sr.find(src, dst) {
		t.Fatal("g1 unreachable")
	}
	first := append([]int32(nil), sr.path...)
	half := sr.dist[dst] / 2
	run := func() {
		sr.next()
		sr.banEdge(first[0], first[1], sr.cur)
		if !sr.find(src, dst) {
			t.Fatal("g1 unreachable once the first hop is banned")
		}
		sr.next()
		sr.search(src, -1)
		sr.next()
		sr.limit = half
		sr.search(src, dst)
		sr.limit = math.Inf(1)
		if sr.reached(dst) {
			t.Fatal("a search limited to half the shortest cost reached g1")
		}
	}
	run() // warm
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("dense search allocates %.2f per run, want 0", avg)
	}
}

// TestAllocGateTreeSpur pins the //lint:hotpath contract on the reverse
// tree: on a warmed context, rebuilding a destination's tree from scratch
// (transposed index, reverse search, slack) and answering a spur from it
// allocate nothing.
func TestAllocGateTreeSpur(t *testing.T) {
	allocGate(t)
	s := gridSnapshot(t, 200)
	src, dst, err := endpoints(s.Index(), "g0", "g1")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph(s, LatencyCost(0))
	defer g.Release()
	g.begin()
	run := func() {
		g.treeDst, g.transposed = -1, false
		g.tree(dst)
		g.next()
		if _, found, ok := g.answer(src); !ok || !found {
			t.Fatalf("the tree did not answer g0's spur: found %v, answered %v", found, ok)
		}
	}
	run() // warm
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("tree build and answered spur allocate %.2f per run, want 0", avg)
	}
	if g.treesBuilt < 101 || g.treeSettles == 0 {
		t.Fatalf("%d trees built with %d settles, want one per run", g.treesBuilt, g.treeSettles)
	}
}
