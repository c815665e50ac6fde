package routing

import (
	"math"
	"math/rand"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// bruteForceShortest enumerates every simple path between src and dst by
// depth-first search and returns the minimum total cost, or +Inf.
// Exponential — usable only on the small graphs this test builds.
func bruteForceShortest(s *topo.Snapshot, src, dst string, cost CostFunc) float64 {
	best := math.Inf(1)
	visited := map[string]bool{}
	var dfs func(at string, acc float64)
	dfs = func(at string, acc float64) {
		if acc >= best {
			return
		}
		if at == dst {
			best = acc
			return
		}
		visited[at] = true
		for _, e := range s.Neighbors(at) {
			to := s.NodeAt(e.To).ID
			if visited[to] {
				continue
			}
			w, ok := cost(e, s)
			if !ok {
				continue
			}
			dfs(to, acc+w)
		}
		visited[at] = false
	}
	dfs(src, 0)
	return best
}

// TestDijkstraMatchesBruteForce cross-validates the Dijkstra implementation
// against exhaustive search on many small random constellations.
func TestDijkstraMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := topo.DefaultConfig()
	cfg.ISLRangeKm = 1e9 // LOS-only for denser small graphs
	cfg.MinElevationDeg = 0
	for trial := 0; trial < 25; trial++ {
		c := orbit.RandomCircular(6, 780, rng)
		specs := make([]topo.SatSpec, c.Len())
		for i, s := range c.Satellites {
			specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
		}
		users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{
			Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*360 - 180}}}
		grounds := []topo.GroundSpec{{ID: "g", Provider: "p", Pos: geo.LatLon{
			Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*360 - 180}}}
		snap := topo.Build(0, cfg, specs, grounds, users)

		cost := LatencyCost(0.001)
		want := bruteForceShortest(snap, "u", "g", cost)
		got, err := ShortestPath(snap, "u", "g", cost)
		if math.IsInf(want, 1) {
			if err == nil {
				t.Fatalf("trial %d: dijkstra found a path brute force did not: %v", trial, got.Nodes)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: brute force found %v but dijkstra errored: %v", trial, want, err)
		}
		if math.Abs(got.Cost-want) > 1e-9 {
			t.Fatalf("trial %d: dijkstra %v != brute force %v (path %v)",
				trial, got.Cost, want, got.Nodes)
		}
	}
}

// TestKShortestCostsMatchBruteForceEnumeration verifies Yen's first few
// paths against exhaustive enumeration of all simple-path costs.
func TestKShortestCostsMatchBruteForceEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	cfg := topo.DefaultConfig()
	cfg.ISLRangeKm = 1e9
	cfg.MinElevationDeg = 0
	for trial := 0; trial < 10; trial++ {
		c := orbit.RandomCircular(5, 780, rng)
		specs := make([]topo.SatSpec, c.Len())
		for i, s := range c.Satellites {
			specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
		}
		users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{
			Lat: rng.Float64()*100 - 50, Lon: rng.Float64()*360 - 180}}}
		grounds := []topo.GroundSpec{{ID: "g", Provider: "p", Pos: geo.LatLon{
			Lat: rng.Float64()*100 - 50, Lon: rng.Float64()*360 - 180}}}
		snap := topo.Build(0, cfg, specs, grounds, users)
		cost := LatencyCost(0.001)

		// Enumerate every simple path cost.
		var all []float64
		visited := map[string]bool{}
		var dfs func(at string, acc float64)
		dfs = func(at string, acc float64) {
			if at == "g" {
				all = append(all, acc)
				return
			}
			visited[at] = true
			for _, e := range snap.Neighbors(at) {
				to := snap.NodeAt(e.To).ID
				if visited[to] {
					continue
				}
				w, ok := cost(e, snap)
				if !ok {
					continue
				}
				dfs(to, acc+w)
			}
			visited[at] = false
		}
		dfs("u", 0)
		if len(all) == 0 {
			continue
		}
		sortFloats(all)

		k := 3
		if k > len(all) {
			k = len(all)
		}
		paths, err := KShortestPaths(snap, "u", "g", cost, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < len(paths) && i < k; i++ {
			if math.Abs(paths[i].Cost-all[i]) > 1e-9 {
				t.Fatalf("trial %d: k=%d cost %v, brute force %v", trial, i, paths[i].Cost, all[i])
			}
		}
	}
}

func sortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
