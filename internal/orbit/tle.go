package orbit

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/openspace-project/openspace/internal/geo"
)

// TLE is a parsed two-line element set — the format in which the
// "radar-tracked orbital paths of satellites" the paper's routing relies on
// (§2.2) are published on the public catalogues it cites (N2YO,
// AstriaGraph). OpenSpace providers ingest each other's TLEs to compute the
// shared network topology.
type TLE struct {
	Name             string // line 0, optional
	CatalogNum       int
	IntlDesig        string
	EpochYear        int     // full year
	EpochDay         float64 // day of year with fraction
	Elements         Elements
	MeanMotionRevDay float64
}

// TLE parsing errors.
var (
	ErrTLELineLength = errors.New("orbit: tle: line must be 69 characters")
	ErrTLEChecksum   = errors.New("orbit: tle: checksum mismatch")
	ErrTLELineNumber = errors.New("orbit: tle: wrong line number")
	ErrTLEField      = errors.New("orbit: tle: malformed field")
)

// tleChecksum computes the modulo-10 checksum of the first 68 characters:
// digits count their value, '-' counts 1, everything else 0.
func tleChecksum(line string) int {
	sum := 0
	for _, c := range line[:68] {
		switch {
		case c >= '0' && c <= '9':
			sum += int(c - '0')
		case c == '-':
			sum++
		}
	}
	return sum % 10
}

// ParseTLE parses the two data lines (and an optional preceding name).
// Checksums are verified; the mean motion is converted to a semi-major
// axis via Kepler's third law. A record is accepted only if FormatTLE can
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

// FormatTLE renders the element set as a catalogue-compatible two-line
// set (drag and derivative terms zeroed — this propagator is two-body).
// RAAN, argument of perigee and mean anomaly are written reduced into
// [0, 360), the range ParseTLE accepts.
func (t *TLE) FormatTLE() (line1, line2 string) {
	yy := t.EpochYear % 100
	l1 := fmt.Sprintf("1 %05dU %-8s %02d%012.8f  .00000000  00000-0  00000-0 0  999",
		t.CatalogNum, t.IntlDesig, yy, t.EpochDay)
	e := t.Elements
	ecc := int(math.Round(e.Eccentricity * 1e7))
	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f    9",
		t.CatalogNum, e.InclinationDeg, tleAngle(e.RAANDeg), ecc,
		tleAngle(e.ArgPerigeeDeg), tleAngle(e.MeanAnomalyDeg), t.MeanMotionRevDay)
	l1 = fmt.Sprintf("%-68.68s%d", l1, tleChecksum(fmt.Sprintf("%-68.68s0", l1)))
	l2 = fmt.Sprintf("%-68.68s%d", l2, tleChecksum(fmt.Sprintf("%-68.68s0", l2)))
	return l1, l2
}

// tleAngle rounds an angle to the four decimals its column holds and
// reduces it into [0, 360), so that no angle is written as 360.0000.
func tleAngle(deg float64) float64 {
	r := math.Mod(math.Round(deg*1e4), 360e4)
	if r < 0 {
		r += 360e4
	}
	return r / 1e4
}

// FromElements wraps an element set as a TLE record for export.
func FromElements(name string, catalog int, e Elements) *TLE {
	return &TLE{
		Name:             name,
		CatalogNum:       catalog,
		IntlDesig:        "00000A",
		EpochYear:        2024,
		EpochDay:         1,
		Elements:         e,
		MeanMotionRevDay: e.MeanMotionRadS() * 86400 / (2 * math.Pi),
	}
}

func atoiTrim(s string) (int, error) {
	return strconv.Atoi(strings.TrimSpace(s))
}

func parseFloatTrim(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}
