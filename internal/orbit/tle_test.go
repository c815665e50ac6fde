package orbit

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// The canonical ISS reference TLE (Wikipedia's worked example).
const (
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func TestParseTLEISS(t *testing.T) {
	tle, err := ParseTLE("ISS (ZARYA)", issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	if tle.Name != "ISS (ZARYA)" {
		t.Errorf("name = %q", tle.Name)
	}
	if tle.CatalogNum != 25544 {
		t.Errorf("catalog = %d", tle.CatalogNum)
	}
	if tle.IntlDesig != "98067A" {
		t.Errorf("intl desig = %q", tle.IntlDesig)
	}
	if tle.EpochYear != 2008 {
		t.Errorf("epoch year = %d", tle.EpochYear)
	}
	if math.Abs(tle.EpochDay-264.51782528) > 1e-8 {
		t.Errorf("epoch day = %v", tle.EpochDay)
	}
	e := tle.Elements
	if math.Abs(e.InclinationDeg-51.6416) > 1e-4 {
		t.Errorf("inclination = %v", e.InclinationDeg)
	}
	if math.Abs(e.RAANDeg-247.4627) > 1e-4 {
		t.Errorf("raan = %v", e.RAANDeg)
	}
	if math.Abs(e.Eccentricity-0.0006703) > 1e-7 {
		t.Errorf("eccentricity = %v", e.Eccentricity)
	}
	if math.Abs(e.ArgPerigeeDeg-130.5360) > 1e-4 {
		t.Errorf("arg perigee = %v", e.ArgPerigeeDeg)
	}
	if math.Abs(e.MeanAnomalyDeg-325.0288) > 1e-4 {
		t.Errorf("mean anomaly = %v", e.MeanAnomalyDeg)
	}
	// 15.72 rev/day → a ≈ 6724 km → ~350 km altitude (the ISS, 2008).
	if alt := e.AltitudeKm(); alt < 300 || alt > 400 {
		t.Errorf("ISS altitude = %v km, want ~350", alt)
	}
	// Period consistency: n rev/day ↔ period.
	wantPeriod := 86400.0 / 15.72125391
	if math.Abs(e.PeriodS()-wantPeriod) > 0.5 {
		t.Errorf("period = %v, want %v", e.PeriodS(), wantPeriod)
	}
}

func TestParseTLEErrors(t *testing.T) {
	// Length.
	if _, err := ParseTLE("", "short", issLine2); !errors.Is(err, ErrTLELineLength) {
		t.Errorf("short line: %v", err)
	}
	// Swapped lines.
	if _, err := ParseTLE("", issLine2, issLine1); !errors.Is(err, ErrTLELineNumber) {
		t.Errorf("swapped lines: %v", err)
	}
	// Corrupted checksum digit.
	bad := issLine1[:68] + "0"
	if _, err := ParseTLE("", bad, issLine2); !errors.Is(err, ErrTLEChecksum) {
		t.Errorf("bad checksum: %v", err)
	}
	// Corrupted field caught by checksum.
	bad = strings.Replace(issLine2, "51.6416", "51.9416", 1)
	if _, err := ParseTLE("", issLine1, bad); !errors.Is(err, ErrTLEChecksum) {
		t.Errorf("corrupted field: %v", err)
	}
	// Records FormatTLE could not write back, with valid checksums.
	for _, c := range []struct{ what, line1, line2 string }{
		{"fields without blank separators", issLine1, glued},
		{"multi-byte designator", nonASCII, issLine2},
		{"epoch day 0", withChecksum(strings.Replace(issLine1, "08264.51782528", "08000.51782528", 1)), issLine2},
		{"raan 360", issLine1, withChecksum(strings.Replace(issLine2, "247.4627", "360.0000", 1))},
		{"inclination NaN", issLine1, withChecksum(strings.Replace(issLine2, " 51.6416", "     NaN", 1))},
		{"mean motion 0", issLine1, withChecksum(strings.Replace(issLine2, "15.72125391", " 0.00000000", 1))},
	} {
		if _, err := ParseTLE("", c.line1, c.line2); !errors.Is(err, ErrTLEField) {
			t.Errorf("%s: %v, want ErrTLEField", c.what, err)
		}
	}
}

// withChecksum replaces the check digit of a 69-character line with the
// one its first 68 characters call for.
func withChecksum(line string) string {
	return line[:68] + string(rune('0'+tleChecksum(line)))
}

// Lines FormatTLE could not write back, found by FuzzParseTLE: the first
// reads as a RAAN of 2 470 462° and overflows its columns, and the second
// has a two-byte rune in the designator, which %-8s pads as one column.
var (
	glued    = "20255440051.641602470462700006703013005360032500288015.72125391563537"
	nonASCII = withChecksum("1 25544U 98067é  08264.51782528 -.00002182  00000-0 -11606-4 0  2927"[:68] + "0")
)

func TestTLERoundTrip(t *testing.T) {
	// Every Iridium satellite exports to TLE and parses back to the same
	// orbit. Walker phasing puts some mean anomalies past 360°; they are
	// written reduced into [0, 360).
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	angleDiff := func(a, b float64) float64 { return math.Abs(math.Remainder(a-b, 360)) }
	for i, s := range c.Satellites {
		in := FromElements(s.ID, 70000+i, s.Elements)
		l1, l2 := in.FormatTLE()
		if len(l1) != 69 || len(l2) != 69 {
			t.Fatalf("formatted lines %d/%d chars", len(l1), len(l2))
		}
		out, err := ParseTLE(s.ID, l1, l2)
		if err != nil {
			t.Fatalf("satellite %s: reparse: %v\n%s\n%s", s.ID, err, l1, l2)
		}
		eIn, eOut := in.Elements, out.Elements
		if math.Abs(eIn.SemiMajorAxisKm-eOut.SemiMajorAxisKm) > 0.01 {
			t.Errorf("%s: a %v → %v", s.ID, eIn.SemiMajorAxisKm, eOut.SemiMajorAxisKm)
		}
		if math.Abs(eIn.InclinationDeg-eOut.InclinationDeg) > 1e-4 ||
			angleDiff(eIn.RAANDeg, eOut.RAANDeg) > 1e-4 ||
			angleDiff(eIn.MeanAnomalyDeg, eOut.MeanAnomalyDeg) > 1e-4 {
			t.Errorf("%s: angles drifted", s.ID)
		}
		// Positions agree to metres over an orbit.
		for _, tt := range []float64{0, 1000, 5000} {
			d := eIn.PositionECI(tt).DistanceKm(eOut.PositionECI(tt))
			if d > 0.5 {
				t.Errorf("%s: position differs by %v km at t=%v", s.ID, d, tt)
			}
		}
		if out.CatalogNum != 70000+i {
			t.Errorf("catalog %d → %d", 70000+i, out.CatalogNum)
		}
	}
}

func TestTLEChecksumRules(t *testing.T) {
	// Digits sum, '-' counts 1, letters/spaces/periods count 0 — verified
	// against the ISS reference lines' published check digits.
	if got := tleChecksum(issLine1); got != 7 {
		t.Errorf("line 1 checksum = %d, want 7", got)
	}
	if got := tleChecksum(issLine2); got != 7 {
		t.Errorf("line 2 checksum = %d, want 7", got)
	}
}

// FuzzParseTLE holds the catalogue's persisted form to a round trip: any
// record ParseTLE accepts must format into two 69-character lines that
// parse back to the same record, up to the format's rounding, and format
// again to the same bytes.
func FuzzParseTLE(f *testing.F) {
	f.Add("ISS (ZARYA)", issLine1, issLine2)
	f.Add("", issLine1, glued)
	f.Add("", nonASCII, issLine2)
	f.Fuzz(func(t *testing.T, name, line1, line2 string) {
		in, err := ParseTLE(name, line1, line2)
		if err != nil {
			return
		}
		l1, l2 := in.FormatTLE()
		if len(l1) != 69 || len(l2) != 69 {
			t.Fatalf("formatted lines are %d and %d bytes:\n%q\n%q", len(l1), len(l2), l1, l2)
		}
		out, err := ParseTLE(name, l1, l2)
		if err != nil {
			t.Fatalf("reparse: %v\n%s\n%s", err, l1, l2)
		}
		if out.Name != in.Name || out.CatalogNum != in.CatalogNum || out.IntlDesig != in.IntlDesig || out.EpochYear != in.EpochYear {
			t.Fatalf("identity drifted: %+v → %+v", in, out)
		}
		ei, eo := in.Elements, out.Elements
		for _, c := range []struct {
			field     string
			was, now  float64
			tolerance float64 // half a unit in the last written digit
		}{
			{"epoch day", in.EpochDay, out.EpochDay, 5e-9},
			{"inclination", ei.InclinationDeg, eo.InclinationDeg, 5e-5},
			{"raan", ei.RAANDeg, eo.RAANDeg, 5e-5},
			{"eccentricity", ei.Eccentricity, eo.Eccentricity, 5e-8},
			{"argument of perigee", ei.ArgPerigeeDeg, eo.ArgPerigeeDeg, 5e-5},
			{"mean anomaly", ei.MeanAnomalyDeg, eo.MeanAnomalyDeg, 5e-5},
			{"mean motion", in.MeanMotionRevDay, out.MeanMotionRevDay, 5e-9},
		} {
			if !(math.Abs(c.now-c.was) <= c.tolerance*(1+1e-9)) {
				t.Fatalf("%s %v → %v", c.field, c.was, c.now)
			}
		}
		if m1, m2 := out.FormatTLE(); m1 != l1 || m2 != l2 {
			t.Fatalf("formatting is not a fixed point:\n%s\n%s\n%s\n%s", l1, l2, m1, m2)
		}
	})
}
