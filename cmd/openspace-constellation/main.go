// Command openspace-constellation generates a Walker constellation, renders
// its sub-satellite points as an ASCII world map (the paper's Figure 2(a)
// view) and reports coverage and ISL statistics. It also generates the
// mega-constellation layouts: +Grid ISL wiring plans over Walker Deltas,
// multi-shell compositions, and the Starlink-class presets. With -csv it
// writes the satellite ground positions for external plotting; with
// -islcsv it writes the wiring plan.
//
// Usage:
//
//	openspace-constellation                       # the Iridium reference
//	openspace-constellation -sats 72 -planes 6 -incl 80 -phasing 1
//	openspace-constellation -random 40 -seed 7    # uncoordinated fleets
//	openspace-constellation -delta -sats 1584 -planes 72 -incl 53 -grid
//	openspace-constellation -preset starlink-gen1
//	openspace-constellation -shells 720:36:11:570:70,1584:72:17:550:53
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// options collects the CLI configuration.
type options struct {
	sats, planes, phasing int
	alt, incl             float64
	delta                 bool
	random                int
	seed                  int64
	atT                   float64
	mask                  float64
	grid                  bool
	preset                string
	shells                string
	csvPath               string
	islCSVPath            string
	tlePath               string
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*o); err != nil {
		fmt.Fprintf(os.Stderr, "openspace-constellation: %v\n", err)
		os.Exit(1)
	}
}

// registerFlags defines the CLI's flags on fs and returns the options
// they fill in.
func registerFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.IntVar(&o.sats, "sats", 66, "total satellites (walker mode)")
	fs.IntVar(&o.planes, "planes", 6, "orbital planes (walker mode)")
	fs.IntVar(&o.phasing, "phasing", 2, "walker phasing factor F")
	fs.Float64Var(&o.alt, "alt", 780, "altitude in km")
	fs.Float64Var(&o.incl, "incl", 86.4, "inclination in degrees")
	fs.BoolVar(&o.delta, "delta", false, "walker delta (360° node spread) instead of star")
	fs.IntVar(&o.random, "random", 0, "generate N random uncoordinated orbits instead of a walker")
	fs.Int64Var(&o.seed, "seed", 1, "random seed for -random")
	fs.Float64Var(&o.atT, "t", 0, "epoch offset in seconds at which to snapshot")
	fs.Float64Var(&o.mask, "mask", 10, "ground elevation mask in degrees for coverage")
	fs.BoolVar(&o.grid, "grid", false, "plan +Grid ISL wiring and report link statistics (walker/shells/preset modes)")
	fs.StringVar(&o.preset, "preset", "", "named constellation: starlink-550, starlink-gen1")
	fs.StringVar(&o.shells, "shells", "", "multi-shell spec, comma-separated T:P:F:alt:incl walker deltas")
	fs.StringVar(&o.csvPath, "csv", "", "write sub-satellite points to this CSV file")
	fs.StringVar(&o.islCSVPath, "islcsv", "", "write the +Grid ISL plan (with link lengths at -t) to this CSV file")
	fs.StringVar(&o.tlePath, "tle", "", "export the constellation as a TLE catalogue to this file")
	return o
}

// validate rejects flag values no mode can use: a non-finite -t, a -mask
// outside [0, 90) and a negative -random. Orbit parameters are checked
// where the orbits are built.
func (o options) validate() error {
	if math.IsNaN(o.atT) || math.IsInf(o.atT, 0) {
		return fmt.Errorf("-t %v must be finite", o.atT)
	}
	if !(o.mask >= 0 && o.mask < 90) {
		return fmt.Errorf("-mask %v outside [0, 90)", o.mask)
	}
	if o.random < 0 {
		return fmt.Errorf("-random %d must not be negative", o.random)
	}
	return nil
}

// generate builds the constellation (and wiring plan, when one applies)
// the flags describe.
func generate(o options) (*orbit.Constellation, []orbit.ISLPair, error) {
	switch {
	case o.preset != "":
		switch o.preset {
		case "starlink-550":
			w := orbit.StarlinkShell()
			c, err := w.Build()
			if err != nil {
				return nil, nil, err
			}
			pairs, err := w.GridISLs(w.DefaultGrid())
			if err != nil {
				return nil, nil, err
			}
			return c, pairs, nil
		case "starlink-gen1":
			return orbit.StarlinkGen1().Build()
		default:
			return nil, nil, fmt.Errorf("unknown preset %q (starlink-550, starlink-gen1)", o.preset)
		}
	case o.shells != "":
		m := orbit.MultiShell{Name: "custom"}
		for i, spec := range strings.Split(o.shells, ",") {
			w, err := parseShell(spec)
			if err != nil {
				return nil, nil, fmt.Errorf("shell %d: %w", i, err)
			}
			m.Shells = append(m.Shells, orbit.Shell{Walker: w, Grid: w.DefaultGrid()})
		}
		return m.Build()
	case o.random > 0:
		c := orbit.RandomCircular(o.random, o.alt, rand.New(rand.NewSource(o.seed)))
		for _, s := range c.Satellites {
			if err := s.Elements.Validate(); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", s.ID, err)
			}
		}
		return c, nil, nil
	default:
		w := orbit.WalkerConfig{
			Name: "custom", TotalSats: o.sats, Planes: o.planes, PhasingFactor: o.phasing,
			AltitudeKm: o.alt, InclinationDeg: o.incl, Star: !o.delta,
		}
		c, err := w.Build()
		if err != nil {
			return nil, nil, err
		}
		var pairs []orbit.ISLPair
		if o.grid {
			if pairs, err = w.GridISLs(w.DefaultGrid()); err != nil {
				return nil, nil, err
			}
		}
		return c, pairs, nil
	}
}

// parseShell reads one T:P:F:alt:incl walker-delta spec.
func parseShell(spec string) (orbit.WalkerConfig, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if len(parts) != 5 {
		return orbit.WalkerConfig{}, fmt.Errorf("spec %q: want T:P:F:alt:incl", spec)
	}
	var nums [5]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return orbit.WalkerConfig{}, fmt.Errorf("spec %q field %d: %w", spec, i, err)
		}
		nums[i] = v
	}
	return orbit.WalkerConfig{
		TotalSats:      int(nums[0]),
		Planes:         int(nums[1]),
		PhasingFactor:  int(nums[2]),
		AltitudeKm:     nums[3],
		InclinationDeg: nums[4],
	}, nil
}

func run(o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	c, pairs, err := generate(o)
	if err != nil {
		return err
	}
	if o.grid && pairs == nil {
		return fmt.Errorf("-grid needs a walker, -shells, or -preset constellation")
	}

	points := make([]geo.LatLon, c.Len())
	for i, s := range c.Satellites {
		points[i] = s.Elements.SubSatellitePoint(o.atT)
	}
	renderMap(points)

	caps := c.Footprints(o.atT, o.mask)
	exact := geo.ExactCoverageFraction(caps, 10000)
	worst := geo.WorstCaseCoverageFraction(caps)
	fmt.Printf("constellation: %s | %d satellites | t=%.0fs\n", c.Name, c.Len(), o.atT)
	fmt.Printf("coverage @ %.0f° mask: exact %.1f%% | worst-case rule %.1f%%\n",
		o.mask, exact*100, worst*100)
	period := c.Satellites[0].Elements.PeriodS()
	fmt.Printf("orbital period (first shell): %.1f min\n", period/60)

	if len(pairs) > 0 {
		if err := reportISLPlan(c, pairs, o.atT); err != nil {
			return err
		}
	}

	if o.csvPath != "" {
		if err := writePointsCSV(o.csvPath, c, points); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.csvPath)
	}
	if o.islCSVPath != "" {
		if len(pairs) == 0 {
			return fmt.Errorf("-islcsv needs a +Grid plan (use -grid, -shells, or -preset)")
		}
		if err := writeISLCSV(o.islCSVPath, c, pairs, o.atT); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d planned ISLs)\n", o.islCSVPath, len(pairs))
	}
	if o.tlePath != "" {
		if err := writeTLE(o.tlePath, c); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d TLE sets)\n", o.tlePath, c.Len())
	}
	return nil
}

// islLengths computes each planned link's length at time t.
func islLengths(c *orbit.Constellation, pairs []orbit.ISLPair, t float64) []float64 {
	pos := make(map[string]geo.Vec3, c.Len())
	for _, s := range c.Satellites {
		pos[s.ID] = s.Elements.PositionECEF(t)
	}
	lengths := make([]float64, len(pairs))
	for i, p := range pairs {
		lengths[i] = pos[p.A].DistanceKm(pos[p.B])
	}
	return lengths
}

// reportISLPlan summarises the wiring plan: link count and degree (2|E|/N),
// length spread, and how many planned links are feasible at t under the
// default laser terminal's range with line of sight.
func reportISLPlan(c *orbit.Constellation, pairs []orbit.ISLPair, t float64) error {
	lengths := islLengths(c, pairs, t)
	pos := make(map[string]geo.Vec3, c.Len())
	for _, s := range c.Satellites {
		pos[s.ID] = s.Elements.PositionECEF(t)
	}
	minL, maxL, sum := math.Inf(1), 0.0, 0.0
	feasible := 0
	rangeKm := topo.DefaultConfig().LaserRangeKm
	for i, p := range pairs {
		l := lengths[i]
		sum += l
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
		if l <= rangeKm && geo.LineOfSight(pos[p.A], pos[p.B]) {
			feasible++
		}
	}
	fmt.Printf("+Grid plan: %d ISLs | mean degree %.2f | length %.0f–%.0f km (mean %.0f)\n",
		len(pairs), 2*float64(len(pairs))/float64(c.Len()), minL, maxL, sum/float64(len(pairs)))
	fmt.Printf("feasible at t=%.0fs (laser range %.0f km + line of sight): %d/%d (%.1f%%)\n",
		t, rangeKm, feasible, len(pairs), 100*float64(feasible)/float64(len(pairs)))
	return nil
}

func writePointsCSV(path string, c *orbit.Constellation, points []geo.LatLon) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rows := make([][]string, len(points))
	for i, p := range points {
		rows[i] = []string{c.Satellites[i].ID,
			fmt.Sprintf("%.4f", p.Lat), fmt.Sprintf("%.4f", p.Lon)}
	}
	if err := experiments.WriteCSV(f, []string{"sat", "lat_deg", "lon_deg"}, rows); err != nil {
		f.Close() //lint:allow errdrop the CSV write error above is the primary failure
		return err
	}
	return f.Close()
}

func writeISLCSV(path string, c *orbit.Constellation, pairs []orbit.ISLPair, t float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	lengths := islLengths(c, pairs, t)
	rows := make([][]string, len(pairs))
	for i, p := range pairs {
		rows[i] = []string{p.A, p.B, fmt.Sprintf("%.2f", lengths[i])}
	}
	if err := experiments.WriteCSV(f, []string{"sat_a", "sat_b", "length_km"}, rows); err != nil {
		f.Close() //lint:allow errdrop the CSV write error above is the primary failure
		return err
	}
	return f.Close()
}

func writeTLE(path string, c *orbit.Constellation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Export in the catalogue format the paper's public-orbit argument
	// relies on: any other provider can ingest these lines.
	for i, s := range c.Satellites {
		t := orbit.FromElements(s.ID, 90000+i, s.Elements)
		l1, l2 := t.FormatTLE()
		if _, err := fmt.Fprintf(f, "%s\n%s\n%s\n", s.ID, l1, l2); err != nil {
			f.Close() //lint:allow errdrop the TLE write error above is the primary failure
			return err
		}
	}
	return f.Close()
}

func renderMap(points []geo.LatLon) {
	const width, height = 72, 24
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", width))
	}
	for _, p := range points {
		col := int((p.Lon + 180) / 360 * float64(width-1))
		row := int((90 - p.Lat) / 180 * float64(height-1))
		grid[min(max(row, 0), height-1)][min(max(col, 0), width-1)] = '@'
	}
	for _, line := range grid {
		fmt.Printf("  %s\n", line)
	}
}
