package ground

import (
	"errors"
	"sort"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// Pass is one satellite's contact window at a station.
type Pass struct {
	SatelliteID string
	RiseS, SetS float64
	// MaxElevationDeg is the pass's peak elevation — low-peak passes give
	// poor link budgets and schedulers may skip them.
	MaxElevationDeg float64
}

// PassSchedule computes every pass of every satellite over the station in
// [startS, endS], sorted by rise time. It is the contact plan a
// ground-station-as-a-service operator sells access against (§2.1): the
// ground segment analogue of the ISL contact windows.
func PassSchedule(stationPos geo.LatLon, sats []orbit.Satellite, startS, endS, minElevationDeg float64) ([]Pass, error) {
	if endS <= startS {
		return nil, errors.New("ground: schedule window must be positive")
	}
	if !stationPos.Valid() {
		return nil, errors.New("ground: invalid station position")
	}
	var passes []Pass
	for _, s := range sats {
		windows := s.Elements.ContactWindows(stationPos, startS, endS, 30, minElevationDeg)
		for _, w := range windows {
			p := Pass{SatelliteID: s.ID, RiseS: w.RiseS, SetS: w.SetS}
			// Peak elevation by coarse scan inside the window.
			step := w.DurationS() / 20
			if step <= 0 {
				step = 1
			}
			for t := w.RiseS; t <= w.SetS; t += step {
				if el := geo.ElevationDeg(stationPos, s.Elements.PositionECEF(t)); el > p.MaxElevationDeg {
					p.MaxElevationDeg = el
				}
			}
			passes = append(passes, p)
		}
	}
	sort.Slice(passes, func(i, j int) bool {
		if passes[i].RiseS != passes[j].RiseS { //lint:allow floateq exact sort tie-break keeps pass order deterministic
			return passes[i].RiseS < passes[j].RiseS
		}
		return passes[i].SatelliteID < passes[j].SatelliteID
	})
	return passes, nil
}

// CoverageGaps returns the intervals within [startS, endS] during which no
// satellite is in view of the station — the service outages a gateway
// operator must plan around (or close by buying capacity from other
// OpenSpace members).
func CoverageGaps(passes []Pass, startS, endS float64) []Pass {
	var gaps []Pass
	cursor := startS
	// Merge passes into a covered timeline (they are rise-sorted).
	for _, p := range passes {
		if p.RiseS > cursor {
			gaps = append(gaps, Pass{RiseS: cursor, SetS: p.RiseS})
		}
		if p.SetS > cursor {
			cursor = p.SetS
		}
	}
	if cursor < endS {
		gaps = append(gaps, Pass{RiseS: cursor, SetS: endS})
	}
	return gaps
}
