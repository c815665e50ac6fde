package orbit

import (
	"fmt"
	"math"
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

// FormatTLE renders the element set as a catalogue-compatible two-line
// set (drag and derivative terms zeroed — this propagator is two-body).
// RAAN, argument of perigee and mean anomaly are written reduced into
// [0, 360), the range a catalogue parser accepts.
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
