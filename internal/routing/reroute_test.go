package routing

import (
	"errors"
	"testing"

	"github.com/openspace-project/openspace/internal/topo"
)

// diamondSnapshot builds src→a→dst and src→b→dst (symmetric edges), the
// minimal topology with two edge-disjoint routes. The a-route is cheaper
// (higher capacity is irrelevant; hop costs tie, so delay decides).
func diamondSnapshot(t *testing.T) *topo.Snapshot {
	t.Helper()
	nodes := []topo.Node{
		{ID: "src", Kind: topo.KindUser},
		{ID: "a", Kind: topo.KindSatellite},
		{ID: "b", Kind: topo.KindSatellite},
		{ID: "dst", Kind: topo.KindGroundStation},
	}
	mk := func(from, to string, delay float64) []topo.Edge {
		u, v := at(nodes, from), at(nodes, to)
		return []topo.Edge{
			{From: u, To: v, Kind: topo.LinkISLRF, DelayS: delay, CapacityBps: 1e9},
			{From: v, To: u, Kind: topo.LinkISLRF, DelayS: delay, CapacityBps: 1e9},
		}
	}
	var edges []topo.Edge
	edges = append(edges, mk("src", "a", 0.01)...)
	edges = append(edges, mk("a", "dst", 0.01)...)
	edges = append(edges, mk("src", "b", 0.02)...)
	edges = append(edges, mk("b", "dst", 0.02)...)
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProtectFindsDisjointCandidates(t *testing.T) {
	s := diamondSnapshot(t)
	p, err := Protect(s, "src", "dst", LatencyCost(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Paths) != 2 {
		t.Fatalf("candidates = %d, want 2 (diamond)", len(p.Paths))
	}
	if p.OnBackup() {
		t.Error("fresh protection must start on the primary")
	}
	if got := p.Active().Nodes; len(got) != 3 || got[1] != "a" {
		t.Errorf("primary path %v, want via a (cheaper)", got)
	}
}

func TestProtectErrors(t *testing.T) {
	s := diamondSnapshot(t)
	if _, err := Protect(s, "src", "dst", LatencyCost(0), 0); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, err := Protect(s, "src", "ghost", LatencyCost(0), 2); err == nil {
		t.Error("unknown endpoint must error")
	}
}

func TestRerouteSwitchesToSurvivor(t *testing.T) {
	s := diamondSnapshot(t)
	p, err := Protect(s, "src", "dst", LatencyCost(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the a-route: only the b-route candidate survives.
	deadA := func(path Path) bool {
		for _, n := range path.Nodes {
			if n == "a" {
				return false
			}
		}
		return true
	}
	got, ok := p.Reroute(deadA)
	if !ok {
		t.Fatal("a surviving candidate exists; reroute must succeed")
	}
	if got.Nodes[1] != "b" || !p.OnBackup() {
		t.Errorf("rerouted to %v (onBackup=%v), want via b", got.Nodes, p.OnBackup())
	}
	// Repairs land: reroute prefers the cheaper primary again.
	if back, ok := p.Reroute(func(Path) bool { return true }); !ok || back.Nodes[1] != "a" || p.OnBackup() {
		t.Errorf("repair revert: %v onBackup=%v", back.Nodes, p.OnBackup())
	}
	// Nothing survives.
	if _, ok := p.Reroute(func(Path) bool { return false }); ok {
		t.Error("reroute with no survivors must fail")
	}
}

func TestAdoptInstallsRecomputedPath(t *testing.T) {
	s := diamondSnapshot(t)
	p, err := Protect(s, "src", "dst", LatencyCost(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := ShortestPath(s, "src", "dst", HopCost())
	if err != nil {
		t.Fatal(err)
	}
	p.Adopt(alt)
	if !p.OnBackup() {
		t.Error("adopted path must count as off-primary")
	}
	if got := p.Active(); got.Hops != alt.Hops {
		t.Errorf("active = %v, want adopted path", got.Nodes)
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{BaseS: 2, MaxS: 30, MaxAttempts: 5}
	want := []float64{2, 4, 8, 16, 30}
	for i, w := range want {
		d, ok := b.DelayS(i)
		if !ok || d != w {
			t.Errorf("DelayS(%d) = %v,%v want %v,true", i, d, ok, w)
		}
	}
	if _, ok := b.DelayS(5); ok {
		t.Error("attempt beyond budget must report false")
	}
	if _, ok := b.DelayS(-1); ok {
		t.Error("negative attempt must report false")
	}
	if _, ok := (Backoff{}).DelayS(0); ok {
		t.Error("zero backoff must never grant a retry")
	}
	// Deterministic: two calls agree.
	d1, _ := b.DelayS(3)
	d2, _ := b.DelayS(3)
	if d1 != d2 {
		t.Error("backoff must be deterministic")
	}
}

func TestBackoffEdgeCases(t *testing.T) {
	// MaxAttempts = 0: no retries ever, whatever the base.
	if _, ok := (Backoff{BaseS: 2, MaxS: 30}).DelayS(0); ok {
		t.Error("MaxAttempts 0 must never grant a retry")
	}
	// MaxAttempts = 1: exactly one retry at BaseS.
	one := Backoff{BaseS: 3, MaxS: 30, MaxAttempts: 1}
	if d, ok := one.DelayS(0); !ok || d != 3 {
		t.Errorf("single-attempt DelayS(0) = %v,%v want 3,true", d, ok)
	}
	if _, ok := one.DelayS(1); ok {
		t.Error("single-attempt DelayS(1) must report false")
	}
	// BaseS <= 0 disables the schedule even with attempts budgeted.
	for _, base := range []float64{0, -2} {
		if _, ok := (Backoff{BaseS: base, MaxS: 30, MaxAttempts: 5}).DelayS(0); ok {
			t.Errorf("BaseS %v must never grant a retry", base)
		}
	}
	// MaxS below BaseS caps from the very first retry.
	if d, ok := (Backoff{BaseS: 8, MaxS: 3, MaxAttempts: 4}).DelayS(0); !ok || d != 3 {
		t.Errorf("cap below base: DelayS(0) = %v,%v want 3,true", d, ok)
	}
	// MaxS = 0 means uncapped exponential growth.
	if d, ok := (Backoff{BaseS: 1, MaxAttempts: 40}).DelayS(30); !ok || d != float64(int64(1)<<30) {
		t.Errorf("uncapped DelayS(30) = %v,%v want 2^30,true", d, ok)
	}
}

// TestBackoffMonotoneNonDecreasing sweeps a deterministic parameter grid
// and asserts the schedule's invariants: delays are positive, never
// decrease with the attempt number, never exceed a positive MaxS, and
// the budget boundary is exact.
func TestBackoffMonotoneNonDecreasing(t *testing.T) {
	bases := []float64{0.5, 1, 2, 7.5, 100}
	maxes := []float64{0, 0.25, 1, 30, 1e6}
	attempts := []int{1, 2, 5, 17, 60}
	for _, base := range bases {
		for _, max := range maxes {
			for _, n := range attempts {
				b := Backoff{BaseS: base, MaxS: max, MaxAttempts: n}
				prev := 0.0
				for i := 0; i < n; i++ {
					d, ok := b.DelayS(i)
					if !ok {
						t.Fatalf("%+v: DelayS(%d) refused inside the budget", b, i)
					}
					if d <= 0 {
						t.Fatalf("%+v: DelayS(%d) = %v, want positive", b, i, d)
					}
					if d < prev {
						t.Fatalf("%+v: DelayS(%d) = %v decreased from %v", b, i, d, prev)
					}
					if max > 0 && d > max {
						t.Fatalf("%+v: DelayS(%d) = %v exceeds cap", b, i, d)
					}
					prev = d
				}
				if _, ok := b.DelayS(n); ok {
					t.Fatalf("%+v: DelayS(%d) granted beyond the budget", b, n)
				}
			}
		}
	}
}

func TestDisjointPathsSrcEqualsDst(t *testing.T) {
	s := diamondSnapshot(t)
	paths, err := DisjointPaths(s, "src", "src", LatencyCost(0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("src==dst: %d paths, want exactly one zero-hop path", len(paths))
	}
	if paths[0].Hops != 0 || len(paths[0].Nodes) != 1 {
		t.Errorf("src==dst path = %+v", paths[0])
	}
}

func TestDisjointPathsNoPathAndBottleneck(t *testing.T) {
	// src —(bottleneck)— m, then m→a→dst and m→b→dst: every route shares
	// src→m, so exactly one edge-disjoint path exists.
	nodes := []topo.Node{
		{ID: "src"}, {ID: "m"}, {ID: "a"}, {ID: "b"}, {ID: "dst"}, {ID: "island"},
	}
	mk := func(from, to string) []topo.Edge {
		u, v := at(nodes, from), at(nodes, to)
		return []topo.Edge{
			{From: u, To: v, Kind: topo.LinkISLRF, DelayS: 0.01, CapacityBps: 1e9},
			{From: v, To: u, Kind: topo.LinkISLRF, DelayS: 0.01, CapacityBps: 1e9},
		}
	}
	var edges []topo.Edge
	for _, p := range [][2]string{{"src", "m"}, {"m", "a"}, {"m", "b"}, {"a", "dst"}, {"b", "dst"}} {
		edges = append(edges, mk(p[0], p[1])...)
	}
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := DisjointPaths(s, "src", "dst", LatencyCost(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Errorf("shared bottleneck edge: %d disjoint paths, want 1", len(paths))
	}
	// A disconnected destination yields ErrNoPath.
	if _, err := DisjointPaths(s, "src", "island", LatencyCost(0), 2); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected dst: err = %v, want ErrNoPath", err)
	}
}

// TestDisjointPathsUnderDegradedSnapshot pins the faults-layer interaction:
// masking the single bottleneck edge leaves no path at all.
func TestDisjointPathsUnderDegradedSnapshot(t *testing.T) {
	s := diamondSnapshot(t)
	// Degrade via a cost function that refuses both of a's edges — the
	// same restriction an Overlay mask imposes.
	masked := func(e topo.Edge, snap *topo.Snapshot) (float64, bool) {
		if from, to := edgeIDs(snap, e); from == "a" || to == "a" {
			return 0, false
		}
		return LatencyCost(0)(e, snap)
	}
	paths, err := DisjointPaths(s, "src", "dst", masked, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Nodes[1] != "b" {
		t.Errorf("degraded diamond: paths = %v, want single b-route", paths)
	}
	// Degrading the other branch too disconnects the pair.
	none := func(e topo.Edge, snap *topo.Snapshot) (float64, bool) {
		if from, to := edgeIDs(snap, e); from != "src" && to != "src" {
			return 0, false
		}
		return LatencyCost(0)(e, snap)
	}
	if _, err := DisjointPaths(s, "src", "dst", none, 2); !errors.Is(err, ErrNoPath) {
		t.Errorf("fully degraded: err = %v, want ErrNoPath", err)
	}
}
