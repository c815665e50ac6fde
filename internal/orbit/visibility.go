package orbit

import (
	"math"

	"github.com/openspace-project/openspace/internal/geo"
)

// Visible reports whether the satellite is visible from the ground point at
// time t (seconds after epoch) with at least minElevationDeg of elevation.
func (e Elements) Visible(from geo.LatLon, t, minElevationDeg float64) bool {
	return geo.ElevationDeg(from, e.PositionECEF(t)) >= minElevationDeg
}

// ContactWindow is an interval during which a satellite is continuously
// visible from a ground point. Times are seconds after epoch.
type ContactWindow struct {
	RiseS float64
	SetS  float64
}

// ContactWindows scans [startS, endS] with coarse steps and refines each
// rise/set crossing by bisection to within tolS seconds. stepS must be small
// enough not to skip a whole pass (for LEO, 30 s is safe; passes last
// minutes). Windows clipped by the scan boundaries are reported clipped.
//
// Predictable contact windows are what make OpenSpace routing proactive
// (§2.2): every provider can compute every other provider's windows from
// public orbital data. A non-finite bound or step yields no windows, and
// so does a step too small to advance the sample time.
//
//lint:allow unused the cross-package oracle of traffic's TestLitGatewaysMatchContactWindows
func (e Elements) ContactWindows(from geo.LatLon, startS, endS, stepS, minElevationDeg float64) []ContactWindow {
	if !(stepS > 0) || !(endS > startS) || math.IsInf(startS, 0) || math.IsInf(endS, 0) || math.IsInf(stepS, 0) {
		return nil
	}
	const tolS = 0.01
	vis := func(t float64) bool { return e.Visible(from, t, minElevationDeg) }

	// Bisect a visibility transition inside (lo, hi), stopping early when
	// lo and hi are adjacent floats further apart than tolS (far from the
	// epoch), where the midpoint no longer splits the bracket.
	refine := func(lo, hi float64, wantVisible bool) float64 {
		for hi-lo > tolS {
			mid := (lo + hi) / 2
			if !(lo < mid && mid < hi) {
				break
			}
			if vis(mid) == wantVisible {
				hi = mid
			} else {
				lo = mid
			}
		}
		return (lo + hi) / 2
	}

	var windows []ContactWindow
	prevT := startS
	prevVis := vis(startS)
	cur := ContactWindow{RiseS: startS}
	inWindow := prevVis

	for t := startS + stepS; ; t += stepS {
		if !(t > prevT) {
			return nil // the step is below the spacing of floats at t
		}
		if t > endS {
			t = endS
		}
		v := vis(t)
		switch {
		case v && !prevVis:
			cur = ContactWindow{RiseS: refine(prevT, t, true)}
			inWindow = true
		case !v && prevVis && inWindow:
			cur.SetS = refine(prevT, t, false)
			windows = append(windows, cur)
			inWindow = false
		}
		prevT, prevVis = t, v
		if t >= endS {
			break
		}
	}
	if inWindow {
		cur.SetS = endS
		windows = append(windows, cur)
	}
	return windows
}

// Footprint returns the satellite's coverage cap at time t for ground
// terminals with the given minimum elevation mask.
func (e Elements) Footprint(t, minElevationDeg float64) geo.Cap {
	pos := e.PositionECEF(t)
	return geo.Cap{
		Center:        pos.LatLon(),
		AngularRadius: geo.FootprintAngularRadius(pos.AltitudeKm(), minElevationDeg),
	}
}

// Footprints returns the coverage caps of every satellite in the
// constellation at time t.
func (c *Constellation) Footprints(t, minElevationDeg float64) []geo.Cap {
	caps := make([]geo.Cap, len(c.Satellites))
	for i, s := range c.Satellites {
		caps[i] = s.Elements.Footprint(t, minElevationDeg)
	}
	return caps
}
