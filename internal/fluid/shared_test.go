package fluid

import (
	"reflect"
	"sync"
	"testing"

	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// downMask fails a fixed set of nodes, for the faulted epoch below.
type downMask map[string]bool

func (m downMask) NodeDown(id string) bool   { return m[id] }
func (m downMask) EdgeDown(_, _ string) bool { return false }
func (m downMask) Empty() bool               { return len(m) == 0 }

// TestSharedNetworkEvolvers holds evolvers that share one Network per
// epoch to the same evolvers driven alone: four evolvers with different
// populations and seeds run concurrently through AdvanceOn over lazily
// built per-epoch Networks (the way users-scale shares them), and each
// Result must be deeply equal to a serial run through Advance, which
// builds a fresh Network per call. The epochs include a dark one and one
// under a fault overlay that fails a gateway and every fifth satellite.
func TestSharedNetworkEvolvers(t *testing.T) {
	snap0, gws := gridSnapshot(t, 100, 8, 0)
	snap2, _ := gridSnapshot(t, 100, 8, 60)
	snap3, _ := gridSnapshot(t, 100, 8, 90)
	mask := downMask{gws[0].ID: true}
	for i, id := range snap2.Nodes() {
		if n := snap2.Node(id); n.Kind == topo.KindSatellite && i%5 == 0 {
			mask[id] = true
		}
	}
	snaps := []*topo.Snapshot{snap0, darkSnapshot(t, gws), snap2.Overlay(mask), snap3}
	const faulted = 2
	if snaps[faulted] == snap2 || snaps[faulted].Node(gws[0].ID) != nil {
		t.Fatal("fault overlay left the failed gateway in place")
	}
	cfgs := []Config{
		{Users: 50_000, Seed: 3},
		{Users: 200_000, Seed: 5},
		{Users: 1_000_000, Seed: 7},
		{Users: 5_000_000, Seed: 9},
	}
	run := func(cfg Config, advance func(ev *Evolver, e int, t0, t1 float64) error) (*Result, error) {
		m, err := BuildClassMatrix(cfg)
		if err != nil {
			return nil, err
		}
		ev, err := NewEvolver(m, cfg, gws)
		if err != nil {
			return nil, err
		}
		for e := range snaps {
			ev.SetFaultsActive(e == faulted)
			t0 := float64(e) * 30
			if err := advance(ev, e, t0, t0+30); err != nil {
				return nil, err
			}
		}
		return ev.Result(), nil
	}

	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := run(cfg, func(ev *Evolver, e int, t0, t1 float64) error {
			return ev.Advance(snaps[e], t0, t1, e)
		})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	if r := want[0]; r.DarkEpochs != 1 || r.Interrupted == 0 || r.TransfersDelivered == 0 {
		t.Fatalf("reference run: %d dark epochs, %d interrupted, %d delivered; want 1, some and some",
			r.DarkEpochs, r.Interrupted, r.TransfersDelivered)
	}

	nets := make([]func() *traffic.Network, len(snaps))
	for e, snap := range snaps {
		nets[e] = sync.OnceValue(func() *traffic.Network {
			net := traffic.NewNetwork(snap)
			net.Recapacitate(traffic.DefaultCapacityModel())
			return net
		})
	}
	got := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(cfg, func(ev *Evolver, e int, t0, t1 float64) error {
				return ev.AdvanceOn(nets[e](), t0, t1, e)
			})
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("evolver %d (users %d): shared-Network result differs from serial Advance:\n%+v\n%+v",
				i, cfgs[i].Users, got[i], want[i])
		}
	}
}
