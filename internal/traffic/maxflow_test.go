package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/openspace-project/openspace/internal/topo"
)

// grid builds a synthetic snapshot from (from, to, capacity) triples; delays
// default to 1 ms per hop so latency costs are well-defined.
func grid(t *testing.T, links ...[3]interface{}) *topo.Snapshot {
	t.Helper()
	at := map[string]int32{} // each node's position in nodes
	var nodes []topo.Node
	var edges []topo.Edge
	for _, l := range links {
		from, to := l[0].(string), l[1].(string)
		var capBps float64
		switch c := l[2].(type) {
		case int:
			capBps = float64(c)
		case float64:
			capBps = c
		}
		for _, id := range []string{from, to} {
			if _, ok := at[id]; !ok {
				at[id] = int32(len(nodes))
				nodes = append(nodes, topo.Node{ID: id, Kind: topo.KindGroundStation})
			}
		}
		edges = append(edges, topo.Edge{From: at[from], To: at[to], Kind: topo.LinkISLRF, DelayS: 0.001, CapacityBps: capBps})
	}
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cutCapacityBps sums the cut links' capacities.
func cutCapacityBps(r *MaxFlowResult) float64 {
	var total float64
	for _, c := range r.MinCut {
		total += c.CapacityBps
	}
	return total
}

func TestMaxFlowDiamond(t *testing.T) {
	// s→a 10, s→b 5, a→t 5, b→t 10: max flow 10 (5 along each side).
	n := NewNetwork(grid(t,
		[3]interface{}{"s", "a", 10}, [3]interface{}{"s", "b", 5},
		[3]interface{}{"a", "t", 5}, [3]interface{}{"b", "t", 10},
	))
	r, err := MaxFlow(n, "s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ValueBps-10) > 1e-9 {
		t.Fatalf("diamond max flow = %v, want 10", r.ValueBps)
	}
	if math.Abs(cutCapacityBps(r)-r.ValueBps) > 1e-9 {
		t.Fatalf("cut capacity %v != flow value %v", cutCapacityBps(r), r.ValueBps)
	}
}

func TestMaxFlowCrossEdge(t *testing.T) {
	// Adding a→b lets the surplus of the top path drain through the fat
	// bottom sink: max flow rises from 10 to 15.
	n := NewNetwork(grid(t,
		[3]interface{}{"s", "a", 10}, [3]interface{}{"s", "b", 5},
		[3]interface{}{"a", "t", 5}, [3]interface{}{"b", "t", 10},
		[3]interface{}{"a", "b", 10},
	))
	r, err := MaxFlow(n, "s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ValueBps-15) > 1e-9 {
		t.Fatalf("max flow = %v, want 15", r.ValueBps)
	}
}

func TestMaxFlowClassicCLRS(t *testing.T) {
	// The CLRS flow network (26.1): known max flow 23.
	n := NewNetwork(grid(t,
		[3]interface{}{"s", "v1", 16}, [3]interface{}{"s", "v2", 13},
		[3]interface{}{"v1", "v3", 12}, [3]interface{}{"v2", "v1", 4},
		[3]interface{}{"v2", "v4", 14}, [3]interface{}{"v3", "v2", 9},
		[3]interface{}{"v3", "t", 20}, [3]interface{}{"v4", "v3", 7},
		[3]interface{}{"v4", "t", 4},
	))
	r, err := MaxFlow(n, "s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ValueBps-23) > 1e-9 {
		t.Fatalf("CLRS max flow = %v, want 23", r.ValueBps)
	}
	if len(r.MinCut) == 0 {
		t.Fatal("no min cut reported")
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	n := NewNetwork(grid(t,
		[3]interface{}{"s", "a", 10}, [3]interface{}{"b", "t", 10},
	))
	r, err := MaxFlow(n, "s", "t")
	if err != nil {
		t.Fatal(err)
	}
	if r.ValueBps != 0 {
		t.Fatalf("disconnected flow = %v, want 0", r.ValueBps)
	}
	if len(r.MinCut) != 0 {
		t.Fatalf("disconnected graph has cut %v, want empty", r.MinCut)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	n := NewNetwork(grid(t, [3]interface{}{"s", "t", 1}))
	if _, err := MaxFlow(n, "nope", "t"); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := MaxFlow(n, "s", "nope"); err == nil {
		t.Error("unknown destination should fail")
	}
	if _, err := MaxFlow(n, "s", "s"); err == nil {
		t.Error("src == dst should fail")
	}
}

// randomNetwork builds a connected-ish random capacitated graph for the
// property tests.
func randomNetwork(rng *rand.Rand) *Network {
	nNodes := 4 + rng.Intn(8)
	nodes := make([]topo.Node, nNodes)
	ids := make([]string, nNodes)
	for i := range nodes {
		ids[i] = string(rune('a' + i))
		nodes[i] = topo.Node{ID: ids[i], Kind: topo.KindGroundStation}
	}
	seen := map[[2]string]bool{}
	var edges []topo.Edge
	nEdges := nNodes + rng.Intn(3*nNodes)
	for len(edges) < nEdges {
		i, j := rng.Intn(nNodes), rng.Intn(nNodes)
		if i == j || seen[[2]string{ids[i], ids[j]}] {
			// Dense small graphs may run out of fresh pairs; bail out.
			if len(seen) >= nNodes*(nNodes-1) {
				break
			}
			continue
		}
		seen[[2]string{ids[i], ids[j]}] = true
		edges = append(edges, topo.Edge{
			From: int32(i), To: int32(j), Kind: topo.LinkISLRF,
			DelayS: 0.001 * (1 + rng.Float64()), CapacityBps: float64(1 + rng.Intn(100)),
		})
	}
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		panic(err)
	}
	return NewNetwork(s)
}

// TestMaxFlowInvariantsProperty drives Dinic with testing/quick over random
// graphs and checks the three defining invariants: capacity respected on
// every link, flow conserved at every interior node, and the flow value
// equal to the min cut's capacity (strong duality — a full correctness
// certificate).
func TestMaxFlowInvariantsProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		r, err := MaxFlow(n, "a", "b")
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		const eps = 1e-6
		net := map[string]float64{}
		edges := n.Snap.Edges()
		if len(r.Flow) != len(edges) {
			t.Logf("seed %d: %d flows for %d edges", seed, len(r.Flow), len(edges))
			return false
		}
		for j, flow := range r.Flow {
			from, to := n.Snap.NodeAt(edges[j].From).ID, n.Snap.NodeAt(edges[j].To).ID
			if flow < -eps || flow > n.CapacityBps(int32(j))+eps {
				t.Logf("seed %d: link %s→%s flow %v exceeds capacity %v", seed, from, to, flow, n.CapacityBps(int32(j)))
				return false
			}
			net[from] -= flow
			net[to] += flow
		}
		for _, id := range n.Snap.Nodes() {
			if id == "a" || id == "b" {
				continue
			}
			if math.Abs(net[id]) > eps {
				t.Logf("seed %d: conservation violated at %s: %v", seed, id, net[id])
				return false
			}
		}
		if math.Abs(net["b"]-r.ValueBps) > eps {
			t.Logf("seed %d: sink inflow %v != value %v", seed, net["b"], r.ValueBps)
			return false
		}
		if math.Abs(cutCapacityBps(r)-r.ValueBps) > eps {
			t.Logf("seed %d: cut %v != value %v", seed, cutCapacityBps(r), r.ValueBps)
			return false
		}
		for i := 1; i < len(r.MinCut); i++ {
			if a, b := r.MinCut[i-1].LinkID, r.MinCut[i].LinkID; a.From > b.From || (a.From == b.From && a.To >= b.To) {
				t.Logf("seed %d: cut not sorted by (From, To): %v before %v", seed, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaxFlowDeterministic(t *testing.T) {
	rngA := rand.New(rand.NewSource(7))
	na := randomNetwork(rngA)
	ra, err := MaxFlow(na, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewSource(7))
	nb := randomNetwork(rngB)
	rb, err := MaxFlow(nb, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if ra.ValueBps != rb.ValueBps || len(ra.MinCut) != len(rb.MinCut) {
		t.Fatalf("max flow not deterministic: %v/%v vs %v/%v", ra.ValueBps, ra.MinCut, rb.ValueBps, rb.MinCut)
	}
	for i := range ra.MinCut {
		if ra.MinCut[i] != rb.MinCut[i] {
			t.Fatalf("cut differs at %d: %v vs %v", i, ra.MinCut[i], rb.MinCut[i])
		}
	}
}

// oracleArc is an arc of oracleMaxFlow's residual graph; rev is the
// partner's index in its head's row.
type oracleArc struct {
	to, rev, edge int32
	cap, orig     float64
}

// oracleMaxFlow is Dinic on a residual graph built by appending each
// edge's two arcs to per-node rows, with a level search that labels every
// reachable node. It is the oracle of the pooled CSR graph and of the
// level search that stops at dst.
func oracleMaxFlow(n *Network, src, dst string) *MaxFlowResult {
	ix := n.Snap.Index()
	eps := n.eps()
	adj := make([][]oracleArc, len(ix.Nodes))
	for u := range ix.Nodes {
		for j := ix.Off[u]; j < ix.Off[u+1]; j++ {
			c := n.caps[j]
			if c <= 0 {
				continue
			}
			v := ix.To[j]
			adj[u] = append(adj[u], oracleArc{to: v, rev: int32(len(adj[v])), edge: j, cap: c, orig: c})
			adj[v] = append(adj[v], oracleArc{to: int32(u), rev: int32(len(adj[u]) - 1), edge: -1})
		}
	}
	level := make([]int32, len(adj))
	iter := make([]int, len(adj))
	levels := func(s int32) {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		for q := []int32{s}; len(q) > 0; q = q[1:] {
			for _, a := range adj[q[0]] {
				if a.cap > eps && level[a.to] < 0 {
					level[a.to] = level[q[0]] + 1
					q = append(q, a.to)
				}
			}
		}
	}
	var augment func(u, t int32, limit float64) float64
	augment = func(u, t int32, limit float64) float64 {
		if u == t {
			return limit
		}
		for ; iter[u] < len(adj[u]); iter[u]++ {
			a := &adj[u][iter[u]]
			if a.cap <= eps || level[a.to] != level[u]+1 {
				continue
			}
			if pushed := augment(a.to, t, math.Min(limit, a.cap)); pushed > 0 {
				a.cap -= pushed
				adj[a.to][a.rev].cap += pushed
				return pushed
			}
		}
		return 0
	}
	s, _ := ix.Lookup(src)
	t, _ := ix.Lookup(dst)
	res := &MaxFlowResult{Flow: make([]float64, len(ix.Edges))}
	for levels(s); level[t] >= 0; levels(s) {
		clear(iter)
		for {
			pushed := augment(s, t, math.Inf(1))
			if pushed <= 0 {
				break
			}
			res.ValueBps += pushed
		}
	}
	for u := range adj {
		for _, a := range adj[u] {
			if flow := a.orig - a.cap; a.edge >= 0 && flow > eps {
				res.Flow[a.edge] = flow
			}
			if a.orig > 0 && level[u] >= 0 && level[a.to] < 0 {
				res.MinCut = append(res.MinCut, CutLink{LinkID: LinkID{ix.Nodes[u].ID, ix.Nodes[a.to].ID}, CapacityBps: a.orig})
			}
		}
	}
	return res
}

// tiedNetwork is a random graph whose capacities take three values, some
// of them zero, so that augmenting paths and cuts tie everywhere.
func tiedNetwork(rng *rand.Rand, nNodes int) *Network {
	nodes := make([]topo.Node, nNodes)
	for i := range nodes {
		nodes[i] = topo.Node{ID: fmt.Sprintf("n%03d", i), Kind: topo.KindGroundStation}
	}
	var edges []topo.Edge
	for i := range nNodes {
		for j := range nNodes {
			if i != j && rng.Float64() < 4/float64(nNodes) {
				edges = append(edges, topo.Edge{
					From: int32(i), To: int32(j), Kind: topo.LinkISLRF,
					DelayS: 0.001, CapacityBps: float64(rng.Intn(3)) * 5,
				})
			}
		}
	}
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		panic(err)
	}
	return NewNetwork(s)
}

// TestMaxFlowMatchesOracle holds MaxFlow to oracleMaxFlow bit for bit —
// value, per-link flow and cut — on random graphs full of ties and on a
// 2 000-satellite +Grid between gateway pairs, with pooled graphs moving
// between snapshots of different sizes.
func TestMaxFlowMatchesOracle(t *testing.T) {
	check := func(name string, n *Network, src, dst string) {
		t.Helper()
		got, err := MaxFlow(n, src, dst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := oracleMaxFlow(n, src, dst)
		if math.Float64bits(got.ValueBps) != math.Float64bits(want.ValueBps) {
			t.Fatalf("%s %s→%s: value %v, oracle %v", name, src, dst, got.ValueBps, want.ValueBps)
		}
		for j := range want.Flow {
			if math.Float64bits(got.Flow[j]) != math.Float64bits(want.Flow[j]) {
				t.Fatalf("%s %s→%s: edge %d flow %v, oracle %v", name, src, dst, j, got.Flow[j], want.Flow[j])
			}
		}
		if !reflect.DeepEqual(got.MinCut, want.MinCut) {
			t.Fatalf("%s %s→%s: cut %v, oracle %v", name, src, dst, got.MinCut, want.MinCut)
		}
	}
	rng := rand.New(rand.NewSource(1))
	flowing := 0
	for trial := 0; trial < 200; trial++ {
		n := tiedNetwork(rng, 5+rng.Intn(60))
		nodes := n.Snap.Nodes()
		src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if src == dst {
			continue
		}
		check(fmt.Sprintf("random %d", trial), n, src, dst)
		if r, _ := MaxFlow(n, src, dst); r.ValueBps > 0 {
			flowing++
		}
	}
	if flowing < 50 {
		t.Fatalf("only %d random graphs carry flow; the comparison is too thin", flowing)
	}
	grid := memoNetwork(t, mustWalker(t, 2000), true)
	for _, pair := range [][2]string{{"gs-seattle", "gs-nairobi"}, {"gs-london", "gs-sydney"}, {"gs-tokyo", "gs-santiago"}, {"gs-dead", "gs-london"}} {
		check("grid-2000", grid, pair[0], pair[1])
	}
}
