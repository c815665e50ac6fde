package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

func TestKShortestOrderedAndDistinct(t *testing.T) {
	s := testSnapshot(t, 1, false)
	paths, err := KShortestPaths(s, "u-nairobi", "gs-seattle", LatencyCost(0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("got %d paths, want several in a dense mesh", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Cost < paths[i-1].Cost {
			t.Errorf("paths out of order: %v then %v", paths[i-1].Cost, paths[i].Cost)
		}
	}
	// Distinct node sequences, all valid and loopless.
	seen := map[string]bool{}
	for _, p := range paths {
		key := ""
		nodes := map[string]bool{}
		for _, n := range p.Nodes {
			key += n + "|"
			if nodes[n] {
				t.Fatalf("loop in path %v", p.Nodes)
			}
			nodes[n] = true
		}
		if seen[key] {
			t.Fatalf("duplicate path %v", p.Nodes)
		}
		seen[key] = true
		if p.Nodes[0] != "u-nairobi" || p.Nodes[len(p.Nodes)-1] != "gs-seattle" {
			t.Fatalf("bad endpoints %v", p.Nodes)
		}
		// Every consecutive pair must be an actual edge.
		for i := 0; i+1 < len(p.Nodes); i++ {
			if _, ok := s.Edge(p.Nodes[i], p.Nodes[i+1]); !ok {
				t.Fatalf("phantom edge %s→%s", p.Nodes[i], p.Nodes[i+1])
			}
		}
	}
	// First path is the Dijkstra optimum.
	best, err := ShortestPath(s, "u-nairobi", "gs-seattle", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if paths[0].Cost != best.Cost {
		t.Errorf("first path cost %v != optimum %v", paths[0].Cost, best.Cost)
	}
}

func TestKShortestDegenerate(t *testing.T) {
	s := testSnapshot(t, 1, false)
	if ps, err := KShortestPaths(s, "u-nairobi", "gs-seattle", HopCost(), 0); err != nil || ps != nil {
		t.Errorf("k=0 should be nil, nil; got %v, %v", ps, err)
	}
	if _, err := KShortestPaths(s, "ghost", "gs-seattle", HopCost(), 3); err == nil {
		t.Error("unknown src should error")
	}
	// k=1 equals Dijkstra.
	one, err := KShortestPaths(s, "u-nairobi", "gs-seattle", HopCost(), 1)
	if err != nil || len(one) != 1 {
		t.Fatalf("k=1: %v, %v", one, err)
	}
}

func TestKShortestExhaustsSmallGraph(t *testing.T) {
	// A tiny 4-satellite chain has a limited number of simple paths; asking
	// for more must return only what exists.
	sats := []topo.SatSpec{}
	for i := 0; i < 4; i++ {
		sats = append(sats, topo.SatSpec{
			ID: string(rune('a' + i)), Provider: "P",
			Elements: orbit.Circular(780, 86.4, 0, float64(i)*9),
		})
	}
	users := []topo.UserSpec{{ID: "u", Provider: "P", Pos: geo.LatLon{Lat: 9, Lon: 2}}}
	s := topo.Build(0, topo.DefaultConfig(), sats, nil, users)
	if s.EdgeCount() == 0 {
		t.Skip("degenerate geometry; no links formed")
	}
	paths, err := KShortestPaths(s, "u", "a", HopCost(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) > 40 {
		t.Errorf("more paths than a 5-node graph can hold: %d", len(paths))
	}
}

// tieCosts are the tie-heavy gate's cost functions. Under "free" every
// path ties at 0 and node sequences alone order them, which is where the
// bound of the bounded spur searches must be strict; hop counting and
// delay rounded to whole milliseconds tie everywhere; "tenths" ties as
// often but sums multiples of 0.1, which floats round differently in
// different orders, which is where the bound needs spurSlack; raw delay
// rarely ties.
func tieCosts() map[string]CostFunc {
	return map[string]CostFunc{
		"free": func(topo.Edge, *topo.Snapshot) (float64, bool) { return 0, true },
		"hop":  HopCost(),
		"ms": func(e topo.Edge, _ *topo.Snapshot) (float64, bool) {
			return math.Round(e.DelayS * 1e3), true
		},
		"tenths": func(e topo.Edge, _ *topo.Snapshot) (float64, bool) {
			return math.Round(e.DelayS*1e3) / 10, true
		},
		"delay": LatencyCost(0),
	}
}

// tieSnapshot builds one graph of the tie-heavy gate. An even shape is a
// +Grid lattice of 2–8 planes of 2–8 satellites, wired like a Walker
// Delta (rings within and across planes once there are more than two),
// with two ground stations homed on two satellites each; an odd shape is
// a random mesh of 5–20 nodes. Link delays are whole milliseconds plus
// under 0.3 ms of jitter. Each node then fails with probability nodePct %
// and each surviving link with probability linkPct %.
func tieSnapshot(tb testing.TB, rng *rand.Rand, shape uint8, nodePct, linkPct int) *topo.Snapshot {
	tb.Helper()
	var nodes []topo.Node
	var edges []topo.Edge
	var ends [][2]string // edges[k] runs from ends[k][0] to ends[k][1], whose nodes may come later
	link := func(a, b string, kind topo.LinkKind, ms int) {
		d := (float64(ms) + 0.3*rng.Float64()) / 1e3
		e := topo.Edge{Kind: kind, DelayS: d, DistanceKm: d * 3e5, CapacityBps: 1e9}
		edges = append(edges, e, e)
		ends = append(ends, [2]string{a, b}, [2]string{b, a})
	}
	size := int(shape / 2)
	if shape%2 == 0 {
		planes, slots := 2+size%7, 2+size/7%7
		id := func(p, s int) string { return fmt.Sprintf("s%d-%d", p, s) }
		for p := 0; p < planes; p++ {
			for s := 0; s < slots; s++ {
				nodes = append(nodes, topo.Node{ID: id(p, s), Kind: topo.KindSatellite, HasLaser: true})
				if s+1 < slots || slots > 2 {
					link(id(p, s), id(p, (s+1)%slots), topo.LinkISLLaser, 4)
				}
				if p+1 < planes || planes > 2 {
					link(id(p, s), id((p+1)%planes, s), topo.LinkISLLaser, 5+p%2)
				}
			}
		}
		sats := planes * slots
		for _, g := range []string{"g0", "g1"} {
			nodes = append(nodes, topo.Node{ID: g, Kind: topo.KindGroundStation})
			a := rng.Intn(sats)
			for _, h := range []int{a, (a + 1 + rng.Intn(sats-1)) % sats} {
				link(g, id(h/slots, h%slots), topo.LinkGround, 3)
			}
		}
	} else {
		n := 5 + size%16
		density := 20 + rng.Intn(40)
		for i := 0; i < n; i++ {
			nodes = append(nodes, topo.Node{ID: fmt.Sprintf("m%02d", i), Kind: topo.KindSatellite})
			for j := 0; j < i; j++ {
				if rng.Intn(100) < density {
					link(nodes[j].ID, nodes[i].ID, topo.LinkISLRF, 1+rng.Intn(4))
				}
			}
		}
	}
	for k := range edges {
		edges[k].From, edges[k].To = at(nodes, ends[k][0]), at(nodes, ends[k][1])
	}
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		tb.Fatal(err)
	}
	m := testMask{nodes: map[string]bool{}, links: map[[2]string]bool{}}
	for _, n := range nodes {
		if rng.Intn(100) < nodePct {
			m.nodes[n.ID] = true
		}
	}
	for _, e := range s.Edges() {
		if from, to := edgeIDs(s, e); from < to && rng.Intn(100) < linkPct {
			m.links[[2]string{from, to}] = true
		}
	}
	return s.Overlay(m)
}

// checkTies compares KShortestPaths for every k in 1…maxTieK with the
// first k paths of one oracle run at maxTieK, by node sequence, edge
// positions and cost bits, for three random endpoint pairs of s under
// every tieCosts cost. It returns how many pairs had maxTieK paths and
// how many accepted paths tied their predecessor's cost exactly.
func checkTies(t *testing.T, label string, rng *rand.Rand, s *topo.Snapshot) (full, ties int) {
	t.Helper()
	ids := s.Nodes()
	if len(ids) < 2 {
		return 0, 0
	}
	for p := 0; p < 3; p++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		for cname, cost := range tieCosts() {
			pl := fmt.Sprintf("%s/%s %s→%s", label, cname, src, dst)
			want, wantErr := oracleKShortestPaths(s, src, dst, cost, maxTieK)
			if len(want) == maxTieK {
				full++
			}
			for i := 1; i < len(want); i++ {
				if want[i].Cost == want[i-1].Cost { //lint:allow floateq counting exact ties is the point
					ties++
				}
			}
			for k := 1; k <= maxTieK; k++ {
				got, gotErr := KShortestPaths(s, src, dst, cost, k)
				checkPaths(t, fmt.Sprintf("%s k=%d", pl, k), got, gotErr, want[:min(k, len(want))], wantErr)
			}
		}
	}
	return full, ties
}

const maxTieK = 16

// TestKShortestPathsTies is the seeded half of the tie-heavy gate: small
// +Grid shells and random meshes, intact and with random node and link
// faults, where hop and whole-millisecond costs tie everywhere. The
// bounded spurs, the Lawler start index and the trimmed pool must leave
// every path and its cost bits exactly as plain Yen has them.
func TestKShortestPathsTies(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 16
	}
	rng := rand.New(rand.NewSource(18))
	var full, ties int
	for c := 0; c < cases; c++ {
		shape := uint8(rng.Intn(256))
		pct := []int{0, 10, 30}[c%3]
		s := tieSnapshot(t, rng, shape, pct, pct)
		f, tt := checkTies(t, fmt.Sprintf("case %d shape %d faults %d%%", c, shape, pct), rng, s)
		full += f
		ties += tt
	}
	t.Logf("%d pairs with %d paths, %d exact ties", full, maxTieK, ties)
	if full < cases || ties < 10*cases {
		t.Fatalf("only %d full pairs and %d ties over %d cases; the gate no longer exercises ties", full, ties, cases)
	}
}

// FuzzKShortestPaths is the fuzzed half of the tie-heavy gate: the fuzzer
// picks the graph's shape and size, its fault rates and the seed that
// places faults and endpoints.
func FuzzKShortestPaths(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(54), uint8(10), uint8(20))
	f.Add(int64(4), uint8(31), uint8(25), uint8(5))
	f.Add(int64(5), uint8(110), uint8(40), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, shape, nodePct, linkPct uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := tieSnapshot(t, rng, shape, int(nodePct%50), int(linkPct%50))
		checkTies(t, fmt.Sprintf("seed %d shape %d", seed, shape), rng, s)
	})
}
