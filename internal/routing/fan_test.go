package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/openspace-project/openspace/internal/topo"
)

// TestFanMatchesShortestPath holds every answer of a Fan to
// ShortestPath's for the same destination: the same nodes, arcs, cost and
// statistics, bit for bit, or the same error text. It runs on a +Grid of
// 200 under hop counting (ties everywhere), the same grid with failures,
// and Iridium under latency. Each source asks for its destinations in a
// random order, including unknown IDs, repeats, itself, nodes the search
// has already settled and nodes it cannot reach; Reach must give Path's
// Hops and DelayS bits. One fan settles each node at most once.
func TestFanMatchesShortestPath(t *testing.T) {
	grid := gridSnapshot(t, 200)
	cases := []struct {
		name string
		snap *topo.Snapshot
		cost CostFunc
	}{
		{"grid-200/hop", grid, HopCost()},
		{"grid-200-faults/hop", faulted(grid), HopCost()},
		{"iridium/latency", testSnapshot(t, 3, false), LatencyCost(0)},
	}
	rng := rand.New(rand.NewSource(33))
	var answers, unreachable, unknown int
	for _, c := range cases {
		ids := c.snap.Nodes()
		srcs := []string{ids[0], ids[len(ids)/2], ids[len(ids)-1]}
		for _, id := range ids {
			if k := c.snap.Node(id).Kind; k != topo.KindSatellite {
				srcs = append(srcs, id)
			}
		}
		for _, src := range srcs {
			dsts := []string{src, "nope", ids[rng.Intn(len(ids))]}
			for _, i := range rng.Perm(len(ids))[:30] {
				dsts = append(dsts, ids[i])
			}
			dsts = append(dsts, dsts[3], dsts[len(dsts)-1], src)
			rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })

			f, err := NewFan(c.snap, src, c.cost)
			if err != nil {
				t.Fatalf("%s: NewFan(%s): %v", c.name, src, err)
			}
			for i, dst := range dsts {
				label := fmt.Sprintf("%s %s→%s (answer %d)", c.name, src, dst, i)
				want, wantErr := ShortestPath(c.snap, src, dst, c.cost)
				var got Path
				var gotErr error
				if i%2 == 0 { // Reach first, so Path answers a settled node
					hops, delayS, ok := f.Reach(dst)
					got, gotErr = f.Path(dst)
					if ok != (gotErr == nil) || ok && (hops != got.Hops || math.Float64bits(delayS) != math.Float64bits(got.DelayS)) {
						t.Fatalf("%s: Reach gave (%d, %v, %v), Path (%d, %v, %v)", label, hops, delayS, ok, got.Hops, got.DelayS, gotErr)
					}
				} else {
					got, gotErr = f.Path(dst)
				}
				if !sameErr(gotErr, wantErr) {
					t.Fatalf("%s: error %v, ShortestPath %v", label, gotErr, wantErr)
				}
				if !samePath(got, want) {
					t.Fatalf("%s: %v (cost %v), ShortestPath %v (cost %v)", label, got.Nodes, got.Cost, want.Nodes, want.Cost)
				}
				answers++
				switch {
				case wantErr == nil:
				case c.snap.Node(dst) == nil:
					unknown++
				default:
					unreachable++
				}
			}
			if f.g.settles > uint64(len(ids)) {
				t.Fatalf("%s: the fan from %s settled %d times over %d nodes", c.name, src, f.g.settles, len(ids))
			}
			f.Release()
		}
	}
	t.Logf("%d answers: %d unknown, %d unreachable", answers, unknown, unreachable)
	if unknown == 0 || unreachable == 0 {
		t.Fatal("the cases no longer ask for unknown and unreachable destinations")
	}
	if _, err := NewFan(grid, "nope", HopCost()); !sameErr(err, fmt.Errorf("%w: %q", ErrUnknownNode, "nope")) {
		t.Fatalf("NewFan from an unknown source: %v", err)
	}
}

// TestAllocGateFan holds a warmed fan to no allocation: opening it,
// reaching four gateways and releasing it. Only Path, which builds a
// Path, allocates.
func TestAllocGateFan(t *testing.T) {
	allocGate(t)
	s := gridSnapshot(t, 200)
	cost := LatencyCost(0)
	run := func() {
		f, err := NewFan(s, "u0", cost)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []string{"g2", "g0", "g3", "g1"} {
			if _, _, ok := f.Reach(dst); !ok {
				t.Fatalf("%s unreachable from u0", dst)
			}
		}
		f.Release()
	}
	run() // warm
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("a fan reaching four gateways allocates %.2f per run, want 0", avg)
	}
}
