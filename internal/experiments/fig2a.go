package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/topo"
)

// Fig2aResult reproduces Figure 2(a): a simulated OpenSpace constellation
// that "achieves global coverage while maintaining inter-satellite distances
// and trajectories that allow for simple and sustained ISLs".
type Fig2aResult struct {
	Config         orbit.WalkerConfig
	SubSatPoints   []geo.LatLon
	CoverageExact  float64
	IntraPlaneKm   float64 // constant in-plane neighbour distance
	ISLCount       int     // directed ISLs in the t=0 snapshot
	MeanISLRangeKm float64
}

// Fig2a builds the Iridium-like reference constellation and measures the
// properties the figure illustrates.
func Fig2a(gridSize int) (*Fig2aResult, error) {
	cfg := orbit.Iridium()
	c, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	res := &Fig2aResult{Config: cfg}
	for _, s := range c.Satellites {
		res.SubSatPoints = append(res.SubSatPoints, s.Elements.SubSatellitePoint(0))
	}
	res.CoverageExact = geo.ExactCoverageFraction(c.Footprints(0, 10), gridSize)

	// Constant intra-plane spacing (the Walker advantage for sustained ISLs).
	res.IntraPlaneKm = c.Satellites[0].Elements.PositionECI(0).
		DistanceKm(c.Satellites[1].Elements.PositionECI(0))

	// ISL census at t=0.
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "ref", Elements: s.Elements}
	}
	snap := topo.Build(0, topo.DefaultConfig(), specs, nil, nil)
	var sum float64
	for _, e := range snap.Edges() {
		res.ISLCount++
		sum += e.DistanceKm
	}
	if res.ISLCount > 0 {
		res.MeanISLRangeKm = sum / float64(res.ISLCount)
	}
	return res, nil
}

// CSV writes the sub-satellite points for external plotting.
func (r *Fig2aResult) CSV(w io.Writer) error {
	rows := make([][]string, len(r.SubSatPoints))
	for i, p := range r.SubSatPoints {
		rows[i] = []string{d(i), f(p.Lat), f(p.Lon)}
	}
	return WriteCSV(w, []string{"sat", "lat_deg", "lon_deg"}, rows)
}

// Render draws an ASCII world map with the sub-satellite points.
func (r *Fig2aResult) Render(w io.Writer) error {
	const width, height = 72, 24
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", width))
	}
	for _, p := range r.SubSatPoints {
		col := int((p.Lon + 180) / 360 * float64(width-1))
		row := int((90 - p.Lat) / 180 * float64(height-1))
		col = int(math.Max(0, math.Min(float64(width-1), float64(col))))
		row = int(math.Max(0, math.Min(float64(height-1), float64(row))))
		grid[row][col] = '@'
	}
	fmt.Fprintf(w, "Figure 2(a): %s — %d satellites, %d planes, %.0f km\n",
		r.Config.Name, r.Config.TotalSats, r.Config.Planes, r.Config.AltitudeKm)
	for _, line := range grid {
		fmt.Fprintf(w, "  %s\n", line)
	}
	_, err := fmt.Fprintf(w,
		"  coverage %.1f%% (10° mask) | intra-plane ISL %.0f km (constant) | %d ISLs, mean %.0f km\n",
		r.CoverageExact*100, r.IntraPlaneKm, r.ISLCount, r.MeanISLRangeKm)
	return err
}
