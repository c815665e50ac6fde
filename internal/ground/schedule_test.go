package ground

import (
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

func TestPassScheduleFullConstellation(t *testing.T) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	station := geo.LatLon{Lat: 47.6, Lon: -122.3}
	const horizon = 7200.0
	passes, err := PassSchedule(station, c.Satellites, 0, horizon, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 5 {
		t.Fatalf("full Iridium gave only %d passes in 2 h", len(passes))
	}
	prev := -1.0
	for i, p := range passes {
		if p.RiseS < prev {
			t.Fatalf("pass %d out of order", i)
		}
		prev = p.RiseS
		if p.SetS <= p.RiseS {
			t.Fatalf("pass %d not positive: %+v", i, p)
		}
		if p.MaxElevationDeg < 10 || p.MaxElevationDeg > 90 {
			t.Fatalf("pass %d peak elevation %v", i, p.MaxElevationDeg)
		}
		if p.SatelliteID == "" {
			t.Fatalf("pass %d missing satellite", i)
		}
	}
	// Iridium leaves a mid-latitude station no gaps.
	gaps := CoverageGaps(passes, 0, horizon)
	if len(gaps) != 0 {
		t.Errorf("full constellation left %d gaps: %+v", len(gaps), gaps)
	}
}

func TestPassScheduleSparseHasGaps(t *testing.T) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sparse := c.Satellites[:3]
	station := geo.LatLon{Lat: 47.6, Lon: -122.3}
	const horizon = 7200.0
	passes, err := PassSchedule(station, sparse, 0, horizon, 10)
	if err != nil {
		t.Fatal(err)
	}
	gaps := CoverageGaps(passes, 0, horizon)
	if len(gaps) == 0 {
		t.Fatal("3 satellites cannot cover a station continuously")
	}
	// Gaps and passes partition the window.
	var covered, gapTime float64
	cursor := 0.0
	for _, p := range passes {
		if p.SetS > cursor {
			start := p.RiseS
			if start < cursor {
				start = cursor
			}
			covered += p.SetS - start
			cursor = p.SetS
		}
	}
	for _, g := range gaps {
		gapTime += g.SetS - g.RiseS
	}
	if diff := covered + gapTime - horizon; diff > 1 || diff < -1 {
		t.Errorf("passes+gaps = %v, want %v", covered+gapTime, horizon)
	}
}

func TestPassScheduleValidation(t *testing.T) {
	if _, err := PassSchedule(geo.LatLon{}, nil, 10, 10, 5); err == nil {
		t.Error("empty window should fail")
	}
	if _, err := PassSchedule(geo.LatLon{Lat: 99}, nil, 0, 10, 5); err == nil {
		t.Error("bad position should fail")
	}
	// No satellites → no passes, whole window is one gap.
	passes, err := PassSchedule(geo.LatLon{}, nil, 0, 100, 5)
	if err != nil || len(passes) != 0 {
		t.Fatalf("empty schedule: %v, %v", passes, err)
	}
	gaps := CoverageGaps(passes, 0, 100)
	if len(gaps) != 1 || gaps[0].RiseS != 0 || gaps[0].SetS != 100 {
		t.Errorf("gaps = %+v", gaps)
	}
}
