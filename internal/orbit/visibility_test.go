package orbit

import (
	"math"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

func TestVisibleOverhead(t *testing.T) {
	// A satellite whose sub-satellite point coincides with the observer is
	// visible at any reasonable mask.
	e := Circular(780, 0, 0, 0)
	ssp := e.SubSatellitePoint(0)
	if !e.Visible(ssp, 0, 85) {
		t.Error("overhead satellite should be visible at 85° mask")
	}
	// An observer on the opposite side of the Earth cannot see it.
	anti := geo.LatLon{Lat: -ssp.Lat, Lon: ssp.Lon + 180}.Normalize()
	if e.Visible(anti, 0, 0) {
		t.Error("antipodal observer should not see the satellite")
	}
}

func TestContactWindowsPolarPass(t *testing.T) {
	// A polar orbit passes over the pole every half period, so a polar
	// observer gets regular, similar-length windows.
	e := Circular(780, 90, 0, 0)
	pole := geo.LatLon{Lat: 90, Lon: 0}
	day := 86400.0
	ws := e.ContactWindows(pole, 0, day, 30, 10)
	if len(ws) < 10 {
		t.Fatalf("polar observer got %d windows in a day, want many", len(ws))
	}
	for i, w := range ws {
		if w.SetS <= w.RiseS {
			t.Fatalf("window %d not ordered: %+v", i, w)
		}
		if d := w.SetS - w.RiseS; d > 20*60 {
			t.Fatalf("window %d lasts %v s, too long for LEO", i, d)
		}
		// Rise and set points really are transitions (except at scan edges).
		if w.RiseS > 1 && w.SetS < day-1 {
			if e.Visible(pole, w.RiseS-1, 10) {
				t.Fatalf("window %d: visible just before rise", i)
			}
			if !e.Visible(pole, w.RiseS+1, 10) {
				t.Fatalf("window %d: not visible just after rise", i)
			}
			if e.Visible(pole, w.SetS+1, 10) {
				t.Fatalf("window %d: visible just after set", i)
			}
		}
	}
	// Windows are disjoint and ordered.
	for i := 1; i < len(ws); i++ {
		if ws[i].RiseS <= ws[i-1].SetS {
			t.Fatalf("windows %d and %d overlap", i-1, i)
		}
	}
}

func TestContactWindowsEquatorNeverSeesPolarGap(t *testing.T) {
	// An equatorial observer and an equatorial orbit in the same plane:
	// the satellite is either permanently visible or periodically visible,
	// and window durations must be consistent.
	e := Circular(780, 0, 0, 0)
	obs := geo.LatLon{Lat: 0, Lon: 0}
	ws := e.ContactWindows(obs, 0, 86400, 30, 5)
	if len(ws) == 0 {
		t.Fatal("equatorial observer should see an equatorial satellite")
	}
	// The relative angular rate is (n - ωE); visibility windows recur with
	// the synodic period.
	syn := 2 * math.Pi / (e.MeanMotionRadS() - geo.EarthRotationRadS)
	// Skip the first window: the satellite starts directly overhead, so that
	// window is clipped at the scan start and its rise is not a true rise.
	for i := 2; i < len(ws); i++ {
		gap := ws[i].RiseS - ws[i-1].RiseS
		if math.Abs(gap-syn) > 60 {
			t.Errorf("window recurrence %v s, want ~%v s", gap, syn)
		}
	}
}

func TestContactWindowsDegenerate(t *testing.T) {
	e := Circular(780, 0, 0, 0)
	obs := geo.LatLon{}
	if ws := e.ContactWindows(obs, 0, 100, 0, 5); ws != nil {
		t.Error("zero step should return nil")
	}
	if ws := e.ContactWindows(obs, 100, 100, 30, 5); ws != nil {
		t.Error("empty interval should return nil")
	}
	// Non-finite bounds or steps never reach the end of the scan, nor does
	// a step below the spacing of floats at the start; each must return
	// at once (run under a test timeout, a hang fails).
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ start, end, step float64 }{
		{0, nan, 30}, {nan, 100, 30}, {0, 100, nan},
		{0, inf, 30}, {-inf, 100, 30}, {-inf, inf, 30}, {0, 100, inf},
		{1e20, 1e20 + 1e5, 30},
	} {
		if ws := e.ContactWindows(obs, c.start, c.end, c.step, 5); ws != nil {
			t.Errorf("ContactWindows(%v, %v, step %v) = %v, want nil", c.start, c.end, c.step, ws)
		}
	}
	// Far from the epoch adjacent floats lie further apart than the
	// bisection tolerance; refining each crossing must still end.
	ws := e.ContactWindows(obs, 1e15, 1e15+1e5, 30, 5)
	if len(ws) == 0 {
		t.Fatal("no windows over 10⁵ s of an equatorial pass sequence")
	}
	for _, w := range ws {
		if !(w.RiseS <= w.SetS) {
			t.Errorf("window %+v sets before it rises", w)
		}
	}
}

func TestFootprint(t *testing.T) {
	e := Circular(780, 0, 0, 0)
	fp := e.Footprint(0, 10)
	want := geo.FootprintAngularRadius(780, 10)
	if !almostEqual(fp.AngularRadius, want, 1e-9) {
		t.Errorf("footprint radius = %v, want %v", fp.AngularRadius, want)
	}
	ssp := e.SubSatellitePoint(0)
	if geo.CentralAngle(fp.Center, ssp) > 1e-9 {
		t.Error("footprint not centred on sub-satellite point")
	}
}

func TestConstellationFootprints(t *testing.T) {
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	caps := c.Footprints(0, 10)
	if len(caps) != 66 {
		t.Fatalf("got %d footprints", len(caps))
	}
	// A full Iridium constellation at a 10° mask covers (nearly) the whole
	// Earth — the premise of the paper's Figure 2(a).
	frac := geo.ExactCoverageFraction(caps, 10000)
	if frac < 0.97 {
		t.Errorf("Iridium coverage = %v, want ≥0.97", frac)
	}
}
