package orbit

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

// TLE parsing errors.
var (
	ErrTLELineLength = errors.New("orbit: tle: line must be 69 characters")
	ErrTLEChecksum   = errors.New("orbit: tle: checksum mismatch")
	ErrTLELineNumber = errors.New("orbit: tle: wrong line number")
	ErrTLEField      = errors.New("orbit: tle: malformed field")
)

// ParseTLE, FormatTLE's oracle, parses the two data lines (and an
// optional preceding name). Checksums are verified; the mean motion is
// converted to a semi-major axis via Kepler's third law. A record is accepted only if FormatTLE can
// write it back: printable ASCII, and every field in the range its
// columns hold.
func ParseTLE(name, line1, line2 string) (*TLE, error) {
	line1 = strings.TrimRight(line1, "\r\n")
	line2 = strings.TrimRight(line2, "\r\n")
	if len(line1) != 69 || len(line2) != 69 {
		return nil, ErrTLELineLength
	}
	if line1[0] != '1' {
		return nil, fmt.Errorf("%w: line 1 starts with %q", ErrTLELineNumber, line1[0])
	}
	if line2[0] != '2' {
		return nil, fmt.Errorf("%w: line 2 starts with %q", ErrTLELineNumber, line2[0])
	}
	for i, l := range []string{line1, line2} {
		// FormatTLE pads by rune, so only single-byte text writes back.
		for k := 0; k < len(l); k++ {
			if l[k] < ' ' || l[k] > '~' {
				return nil, fmt.Errorf("%w: line %d byte %d is not printable ASCII", ErrTLEField, i+1, k+1)
			}
		}
		want, err := strconv.Atoi(l[68:69])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d checksum digit", ErrTLEField, i+1)
		}
		if got := tleChecksum(l); got != want {
			return nil, fmt.Errorf("%w: line %d has %d, want %d", ErrTLEChecksum, i+1, want, got)
		}
	}
	t := &TLE{Name: strings.TrimSpace(name)}
	var err error
	if t.CatalogNum, err = atoiTrim(line1[2:7]); err != nil {
		return nil, fmt.Errorf("%w: catalog number: %v", ErrTLEField, err)
	}
	t.IntlDesig = strings.TrimSpace(line1[9:17])
	yy, err := atoiTrim(line1[18:20])
	if err != nil {
		return nil, fmt.Errorf("%w: epoch year: %v", ErrTLEField, err)
	}
	if yy < 57 { // TLE convention: 57–99 → 19xx, 00–56 → 20xx
		t.EpochYear = 2000 + yy
	} else {
		t.EpochYear = 1900 + yy
	}
	if t.EpochDay, err = parseFloatTrim(line1[20:32]); err != nil {
		return nil, fmt.Errorf("%w: epoch day: %v", ErrTLEField, err)
	}

	e := Elements{}
	if e.InclinationDeg, err = parseFloatTrim(line2[8:16]); err != nil {
		return nil, fmt.Errorf("%w: inclination: %v", ErrTLEField, err)
	}
	if e.RAANDeg, err = parseFloatTrim(line2[17:25]); err != nil {
		return nil, fmt.Errorf("%w: raan: %v", ErrTLEField, err)
	}
	// Eccentricity has an implied leading decimal point.
	eccDigits := strings.TrimSpace(line2[26:33])
	eccInt, err := strconv.ParseUint(eccDigits, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: eccentricity: %v", ErrTLEField, err)
	}
	e.Eccentricity = float64(eccInt) / 1e7
	if e.ArgPerigeeDeg, err = parseFloatTrim(line2[34:42]); err != nil {
		return nil, fmt.Errorf("%w: argument of perigee: %v", ErrTLEField, err)
	}
	if e.MeanAnomalyDeg, err = parseFloatTrim(line2[43:51]); err != nil {
		return nil, fmt.Errorf("%w: mean anomaly: %v", ErrTLEField, err)
	}
	if t.MeanMotionRevDay, err = parseFloatTrim(line2[52:63]); err != nil {
		return nil, fmt.Errorf("%w: mean motion: %v", ErrTLEField, err)
	}
	// Accept only what FormatTLE can write back into the same columns.
	if !(t.EpochDay >= 1 && t.EpochDay < 367) {
		return nil, fmt.Errorf("%w: epoch day %v outside [1, 367)", ErrTLEField, t.EpochDay)
	}
	if !(e.InclinationDeg >= 0 && e.InclinationDeg <= 180) {
		return nil, fmt.Errorf("%w: inclination %v° outside [0, 180]", ErrTLEField, e.InclinationDeg)
	}
	for _, a := range []struct {
		name string
		deg  float64
	}{{"raan", e.RAANDeg}, {"argument of perigee", e.ArgPerigeeDeg}, {"mean anomaly", e.MeanAnomalyDeg}} {
		if !(a.deg >= 0 && a.deg < 360) {
			return nil, fmt.Errorf("%w: %s %v° outside [0, 360)", ErrTLEField, a.name, a.deg)
		}
	}
	if !(t.MeanMotionRevDay >= 1e-8 && t.MeanMotionRevDay < 100) {
		return nil, fmt.Errorf("%w: mean motion %v rev/day outside [1e-8, 100)", ErrTLEField, t.MeanMotionRevDay)
	}
	// n [rad/s] = rev/day · 2π / 86400 ; a = (μ/n²)^(1/3).
	n := t.MeanMotionRevDay * 2 * math.Pi / 86400
	e.SemiMajorAxisKm = math.Cbrt(geo.EarthMuKm3S2 / (n * n))
	t.Elements = e
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func atoiTrim(s string) (int, error) {
	return strconv.Atoi(strings.TrimSpace(s))
}

func parseFloatTrim(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

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
	if alt := e.SemiMajorAxisKm*(1-e.Eccentricity) - geo.EarthRadiusKm; alt < 300 || alt > 400 {
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
