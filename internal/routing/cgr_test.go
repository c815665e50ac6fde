package routing

import (
	"errors"
	"math"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// sparseSeries builds a time-expanded topology over a sparse fleet where
// synchronous paths usually do not exist at any single instant.
func sparseSeries(t *testing.T, nSats int, horizonS float64) *topo.TimeExpanded {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, 0, nSats)
	// Spread picks across planes for diverse ground tracks.
	for i := 0; i < nSats; i++ {
		s := c.Satellites[(i*13)%c.Len()]
		sats = append(sats, topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements})
	}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	grounds := []topo.GroundSpec{{ID: "g", Provider: "p", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}}}
	te, err := topo.BuildTimeExpanded(0, horizonS, 60, topo.DefaultConfig(), sats, grounds, users)
	if err != nil {
		t.Fatal(err)
	}
	return te
}

func TestEarliestArrivalOnDenseMeshMatchesSynchronous(t *testing.T) {
	// With a full constellation the store-and-forward route needs no
	// waiting and matches the instantaneous shortest path's delay.
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	users := []topo.UserSpec{{ID: "u", Provider: "p", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	grounds := []topo.GroundSpec{{ID: "g", Provider: "p", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}}}
	te, err := topo.BuildTimeExpanded(0, 300, 60, topo.DefaultConfig(), sats, grounds, users)
	if err != nil {
		t.Fatal(err)
	}
	route, err := EarliestArrival(te, "u", "g", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if route.TotalWaitS > 1e-9 {
		t.Errorf("dense mesh route waits %v s", route.TotalWaitS)
	}
	sync, err := ShortestPath(te.Snaps[0], "u", "g", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if diff := route.ArrivalS - sync.DelayS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cgr arrival %v != synchronous delay %v", route.ArrivalS, sync.DelayS)
	}
}

func TestEarliestArrivalBridgesCoverageGaps(t *testing.T) {
	// A 5-satellite fleet: no instantaneous path at t=0, but carrying the
	// bundle on board across snapshots delivers within a six-hour horizon
	// (ground tracks must sweep over both endpoints) — the delay-tolerant
	// regime for below-critical-mass deployments.
	const horizon = 6 * 3600.0
	te := sparseSeries(t, 5, horizon)
	if _, err := ShortestPath(te.Snaps[0], "u", "g", LatencyCost(0)); err == nil {
		t.Skip("instantaneous path exists at t=0; geometry too benign for this test")
	}
	route, err := EarliestArrival(te, "u", "g", 0, 0)
	if err != nil {
		t.Fatalf("store-and-forward failed where it should bridge: %v", err)
	}
	if route.TotalWaitS <= 0 {
		t.Error("bridging a gap requires waiting somewhere")
	}
	if route.ArrivalS <= 0 {
		t.Errorf("arrival %v nonsensical", route.ArrivalS)
	}
	// Schedule consistency: hops are causally ordered and each hop's
	// departure is never before the previous arrival.
	at := 0.0
	for i, h := range route.Hops {
		if h.DepartS+1e-9 < at {
			t.Fatalf("hop %d departs %v before arrival %v", i, h.DepartS, at)
		}
		if h.ArriveS < h.DepartS {
			t.Fatalf("hop %d arrives before departing", i)
		}
		if wantWait := h.DepartS - at; mathAbs(wantWait-h.WaitS) > 1e-9 {
			t.Fatalf("hop %d wait %v, want %v", i, h.WaitS, wantWait)
		}
		at = h.ArriveS
	}
	if route.Hops[0].From != "u" || route.Hops[len(route.Hops)-1].To != "g" {
		t.Errorf("route endpoints wrong: %+v", route.Hops)
	}
	if mathAbs(route.ArrivalS-at) > 1e-9 {
		t.Errorf("ArrivalS %v != last hop arrival %v", route.ArrivalS, at)
	}
}

func TestEarliestArrivalTransmissionTime(t *testing.T) {
	te := sparseSeries(t, 66/13*13, 300) // any fleet; tx time just adds up
	r0, err := EarliestArrival(te, "u", "g", 0, 0)
	if err != nil {
		t.Skip("no route in this geometry")
	}
	r1, err := EarliestArrival(te, "u", "g", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ArrivalS < r0.ArrivalS+5 {
		t.Errorf("tx time not accounted: %v vs %v", r1.ArrivalS, r0.ArrivalS)
	}
	if _, err := EarliestArrival(te, "u", "g", 0, -1); err == nil {
		t.Error("negative tx time should fail")
	}
}

func TestEarliestArrivalErrors(t *testing.T) {
	te := sparseSeries(t, 5, 300)
	if _, err := EarliestArrival(te, "ghost", "g", 0, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown src: %v", err)
	}
	if _, err := EarliestArrival(te, "u", "ghost", 0, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown dst: %v", err)
	}
	if _, err := EarliestArrival(&topo.TimeExpanded{}, "u", "g", 0, 0); err == nil {
		t.Error("empty series should fail")
	}
	// On a fleet where u reaches g, NaN inputs used to come back as a route
	// with NaN times and a -Inf start as an infinite wait, all with a nil
	// error.
	te = sparseSeries(t, 66/13*13, 300)
	if _, err := EarliestArrival(te, "u", "g", 0, 0); err != nil {
		t.Fatalf("u → g must route on this fleet: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ startS, txS float64 }{
		{nan, 0}, {inf, 0}, {-inf, 0}, {0, nan}, {0, inf}, {0, -1},
	} {
		if r, err := EarliestArrival(te, "u", "g", c.startS, c.txS); err == nil {
			t.Errorf("start %v, tx %v: route arriving at %v with wait %v, want an error",
				c.startS, c.txS, r.ArrivalS, r.TotalWaitS)
		}
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
