package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
)

// demandFixture returns two satellites and gateways sited exactly under
// them (guaranteed visible at t=0), plus a third gateway at the antipode of
// the first (guaranteed dark with these two satellites).
func demandFixture() ([]orbit.Satellite, []Gateway) {
	sats := []orbit.Satellite{
		{ID: "sat-0", Elements: orbit.Circular(780, 60, 0, 0)},
		{ID: "sat-1", Elements: orbit.Circular(780, 60, 120, 180)},
	}
	posA := sats[0].Elements.SubSatellitePoint(0)
	posB := sats[1].Elements.SubSatellitePoint(0)
	dark := geo.LatLon{Lat: -posA.Lat, Lon: posA.Lon + 180}.Normalize()
	return sats, []Gateway{
		{ID: "gw-a", Pos: posA},
		{ID: "gw-b", Pos: posB},
		{ID: "gw-dark", Pos: dark},
	}
}

// hotspotUsers clusters n users uniformly over a disk of radius spreadKm
// around center, as a disaster zone or an unserved remote region would.
func hotspotUsers(center geo.LatLon, spreadKm float64, n int, rng *rand.Rand) []geo.LatLon {
	out := make([]geo.LatLon, n)
	for i := range out {
		d := spreadKm * math.Sqrt(rng.Float64())
		out[i] = geo.Destination(center, rng.Float64()*360, d)
	}
	return out
}

func TestBuildDemandMatrix(t *testing.T) {
	sats, gws := demandFixture()
	users := hotspotUsers(gws[0].Pos, 50, 40, rand.New(rand.NewSource(1)))
	cfg := DefaultDemandConfig()
	m, err := BuildDemandMatrix(gws, sats, users, cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"gw-a", "gw-b"}; !reflect.DeepEqual(m.LitGateways, want) {
		t.Fatalf("lit gateways = %v, want %v", m.LitGateways, want)
	}
	if m.UnservedUsers != 0 {
		t.Errorf("unserved users = %d, want 0 (gw-a is lit and nearby)", m.UnservedUsers)
	}
	// All users sit on gw-a, so every demand sources there; destinations
	// follow the population-weighted city draw.
	for _, d := range m.Demands {
		if d.Src != "gw-a" {
			t.Errorf("demand %v sources at %s, want gw-a", d, d.Src)
		}
		if d.Dst != "gw-b" {
			t.Errorf("demand %v exits at %s, want gw-b", d, d.Dst)
		}
		if d.OfferedBps <= 0 {
			t.Errorf("demand %v has no load", d)
		}
	}
	// Conservation: every user is either local or contributes PerUserBps.
	want := float64(len(users)-m.LocalUsers) * cfg.PerUserBps
	if got := m.OfferedBps(); got != want {
		t.Errorf("offered %v, want %v (%d local users)", got, want, m.LocalUsers)
	}
	if len(m.Demands) == 0 && m.LocalUsers != len(users) {
		t.Error("no demands despite non-local users")
	}
}

func TestBuildDemandMatrixDeterministic(t *testing.T) {
	sats, gws := demandFixture()
	users := sim.CityUsers(60, 30, rand.New(rand.NewSource(3)))
	run := func() *DemandMatrix {
		m, err := BuildDemandMatrix(gws, sats, users, DefaultDemandConfig(), rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("demand matrix not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestBuildDemandMatrixNoVisibility(t *testing.T) {
	sats, gws := demandFixture()
	darkOnly := []Gateway{gws[2]}
	users := hotspotUsers(gws[0].Pos, 50, 10, rand.New(rand.NewSource(5)))
	m, err := BuildDemandMatrix(darkOnly, sats, users, DefaultDemandConfig(), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Demands) != 0 || len(m.LitGateways) != 0 {
		t.Fatalf("dark constellation produced demands: %+v", m)
	}
	if m.UnservedUsers != len(users) {
		t.Errorf("unserved = %d, want all %d users", m.UnservedUsers, len(users))
	}
}

func TestBuildDemandMatrixErrors(t *testing.T) {
	sats, gws := demandFixture()
	rng := rand.New(rand.NewSource(7))
	if _, err := BuildDemandMatrix(nil, sats, nil, DefaultDemandConfig(), rng); err == nil {
		t.Error("no gateways should fail")
	}
	bad := DefaultDemandConfig()
	bad.PerUserBps = 0
	if _, err := BuildDemandMatrix(gws, sats, nil, bad, rng); err == nil {
		t.Error("zero per-user load should fail")
	}
	bad = DefaultDemandConfig()
	bad.WindowS = 0
	if _, err := BuildDemandMatrix(gws, sats, nil, bad, rng); err == nil {
		t.Error("zero visibility window should fail")
	}
	// A non-finite window never reaches its end: each must fail at once
	// (run under a test timeout, a hang fails), and so must a window that
	// rounding absorbs into its start.
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []struct{ timeS, windowS float64 }{
		{0, nan}, {0, inf}, {nan, 60}, {inf, 60}, {-inf, 60}, {1e17, 1},
	} {
		bad = DefaultDemandConfig()
		bad.TimeS, bad.WindowS = w.timeS, w.windowS
		if _, err := BuildDemandMatrix(gws, sats, nil, bad, rng); err == nil {
			t.Errorf("window [%v, +%v] should fail", w.timeS, w.windowS)
		}
	}
	for _, pos := range []geo.LatLon{{Lat: 99}, {Lon: -181}, {Lat: nan}} {
		bad := append([]Gateway{{ID: "gw-bad", Pos: pos}}, gws...)
		_, err := BuildDemandMatrix(bad, sats, nil, DefaultDemandConfig(), rng)
		if err == nil || !strings.Contains(err.Error(), "gw-bad") {
			t.Errorf("gateway at %v: err = %v, want one naming gw-bad", pos, err)
		}
	}
	// At 10²⁰ s the 30 s step no longer advances the sampled instant; the
	// scan must stop there instead of sampling it forever.
	far := DefaultDemandConfig()
	far.TimeS, far.WindowS = 1e20, 1e5
	if _, err := BuildDemandMatrix(gws, sats, nil, far, rng); err != nil {
		t.Errorf("window at 1e20 s: %v", err)
	}
}

// contactLit is the lit rule litGateways replaced: a gateway is lit when
// some satellite has a contact window over it at a 30 s step.
func contactLit(sats []orbit.Satellite, pos geo.LatLon, cfg DemandConfig) bool {
	for _, s := range sats {
		if len(s.Elements.ContactWindows(pos, cfg.TimeS, cfg.TimeS+cfg.WindowS, 30, cfg.MinElevationDeg)) > 0 {
			return true
		}
	}
	return false
}

// sampledInstants lists the instants ContactWindows samples in
// [startS, endS] at a 30 s step, and whether the last one was clipped to
// endS.
func sampledInstants(startS, endS float64) (ts []float64, clipped bool) {
	ts = []float64{startS}
	for t := startS + 30; ; t += 30 {
		if t > endS {
			t, clipped = endS, true
		}
		ts = append(ts, t)
		if t >= endS {
			return ts, clipped
		}
	}
}

// TestLitGatewaysMatchContactWindows holds BuildDemandMatrix to the
// contact-window rule over random and +Grid fleets, city, random and
// polar gateways, and windows that end on, before and after a 30 s
// instant: the whole matrix must equal the one assigned from the
// oracle's lit set with the same draws. The sweep must include a gateway
// lit only at an interior instant and one lit only at a clipped window
// end, or it does not test the instants the scan visits.
func TestLitGatewaysMatchContactWindows(t *testing.T) {
	type fleet struct {
		name string
		sats []orbit.Satellite
	}
	var fleets []fleet
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 5, 40, 200} {
		fleets = append(fleets, fleet{fmt.Sprintf("random-%d", n), orbit.RandomCircular(n, 780, rng).Satellites})
	}
	w, err := orbit.SquareWalkerDelta(500, 550, 53)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	fleets = append(fleets, fleet{"grid-500", grid.Satellites})

	gws := append(TopCityGateways(8),
		Gateway{ID: "gw-north-pole", Pos: geo.LatLon{Lat: 90}},
		Gateway{ID: "gw-south-pole", Pos: geo.LatLon{Lat: -90, Lon: 180}})
	for i := 0; i < 12; i++ {
		lat := geo.Degrees(math.Asin(2*rng.Float64() - 1))
		gws = append(gws, Gateway{ID: fmt.Sprintf("gw-rand-%02d", i), Pos: geo.LatLon{Lat: lat, Lon: 360*rng.Float64() - 180}})
	}
	users := sim.CityUsers(100, 30, rng)

	interiorOnly, endOnly := 0, 0
	for _, f := range fleets {
		name, sats := f.name, f.sats
		for _, timeS := range []float64{0, 1234.5} {
			for _, windowS := range []float64{1, 29.9, 30, 61, 600} {
				for _, mask := range []float64{0, 10, 40} {
					cfg := DemandConfig{PerUserBps: 1e6, TimeS: timeS, WindowS: windowS, MinElevationDeg: mask}
					got, err := BuildDemandMatrix(gws, sats, users, cfg, rand.New(rand.NewSource(42)))
					if err != nil {
						t.Fatal(err)
					}
					ts, clipped := sampledInstants(timeS, timeS+windowS)
					var lit []Gateway
					for _, g := range gws {
						if !contactLit(sats, g.Pos, cfg) {
							continue
						}
						lit = append(lit, g)
						var seen []bool
						for _, at := range ts {
							v := false
							for _, s := range sats {
								v = v || s.Elements.Visible(g.Pos, at, mask)
							}
							seen = append(seen, v)
						}
						last := len(seen) - 1
						switch {
						case !seen[0] && !seen[last]:
							interiorOnly++
						case clipped && !slices.Contains(seen[:last], true):
							endOnly++
						}
					}
					want := assignDemands(lit, users, cfg.PerUserBps, rand.New(rand.NewSource(42)))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, window [%v, +%v], mask %v: lit %v, want %v",
							name, timeS, windowS, mask, got.LitGateways, want.LitGateways)
					}
				}
			}
		}
	}
	t.Logf("gateways lit only at an interior instant: %d; only at a clipped end: %d", interiorOnly, endOnly)
	if interiorOnly == 0 || endOnly == 0 {
		t.Fatal("the sweep needs gateways lit only at an interior instant and only at a clipped window end")
	}
}
