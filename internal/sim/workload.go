package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/openspace-project/openspace/internal/geo"
)

// City is a population centre used for realistic user placement.
type City struct {
	Name string
	Pos  geo.LatLon
	// PopM is the metro population in millions, used as sampling weight.
	PopM float64
}

// WorldCities returns a fixed catalogue of major population centres across
// every continent, including the under-served regions the paper's
// motivation centres on (remote communities, the developing world).
func WorldCities() []City {
	return []City{
		{"tokyo", geo.LatLon{Lat: 35.68, Lon: 139.69}, 37.4},
		{"delhi", geo.LatLon{Lat: 28.70, Lon: 77.10}, 31.0},
		{"shanghai", geo.LatLon{Lat: 31.23, Lon: 121.47}, 27.0},
		{"sao-paulo", geo.LatLon{Lat: -23.55, Lon: -46.63}, 22.0},
		{"mexico-city", geo.LatLon{Lat: 19.43, Lon: -99.13}, 21.8},
		{"cairo", geo.LatLon{Lat: 30.04, Lon: 31.24}, 21.3},
		{"dhaka", geo.LatLon{Lat: 23.81, Lon: 90.41}, 21.0},
		{"kinshasa", geo.LatLon{Lat: -4.44, Lon: 15.27}, 14.9},
		{"lagos", geo.LatLon{Lat: 6.52, Lon: 3.38}, 14.8},
		{"istanbul", geo.LatLon{Lat: 41.01, Lon: 28.98}, 15.2},
		{"karachi", geo.LatLon{Lat: 24.86, Lon: 67.01}, 16.1},
		{"moscow", geo.LatLon{Lat: 55.76, Lon: 37.62}, 12.5},
		{"new-york", geo.LatLon{Lat: 40.71, Lon: -74.01}, 18.8},
		{"london", geo.LatLon{Lat: 51.51, Lon: -0.13}, 9.4},
		{"nairobi", geo.LatLon{Lat: -1.29, Lon: 36.82}, 4.9},
		{"sydney", geo.LatLon{Lat: -33.87, Lon: 151.21}, 5.3},
		{"anchorage", geo.LatLon{Lat: 61.22, Lon: -149.90}, 0.4},
		{"reykjavik", geo.LatLon{Lat: 64.15, Lon: -21.94}, 0.2},
		{"ushuaia", geo.LatLon{Lat: -54.80, Lon: -68.30}, 0.1},
		{"longyearbyen", geo.LatLon{Lat: 78.22, Lon: 15.64}, 0.01},
	}
}

// CityUsers samples n user positions from the city catalogue with
// population weighting and a local scatter radius (users are near, not in,
// the city centre).
func CityUsers(n int, scatterKm float64, rng *rand.Rand) []geo.LatLon {
	cities := WorldCities()
	// Cumulative weights.
	cum := make([]float64, len(cities))
	var total float64
	for i, c := range cities {
		total += c.PopM
		cum[i] = total
	}
	out := make([]geo.LatLon, n)
	for i := range out {
		r := rng.Float64() * total
		idx := sort.SearchFloat64s(cum, r)
		if idx >= len(cities) {
			idx = len(cities) - 1
		}
		c := cities[idx]
		out[i] = scatter(c.Pos, scatterKm, rng)
	}
	return out
}

// scatter displaces p by a uniform-in-disk offset of radius radiusKm.
func scatter(p geo.LatLon, radiusKm float64, rng *rand.Rand) geo.LatLon {
	if radiusKm <= 0 {
		return p
	}
	d := radiusKm * math.Sqrt(rng.Float64())
	brg := rng.Float64() * 360
	return geo.Destination(p, brg, d)
}

// PoissonArrivals returns event times of a Poisson process with the given
// rate (events/s) over [0, durationS), via exponential inter-arrivals.
func PoissonArrivals(rate, durationS float64, rng *rand.Rand) ([]float64, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("sim: rate %.3f must be positive", rate)
	}
	if durationS < 0 {
		return nil, fmt.Errorf("sim: duration %.3f must be non-negative", durationS)
	}
	var times []float64
	t := rng.ExpFloat64() / rate
	for t < durationS {
		times = append(times, t)
		t += rng.ExpFloat64() / rate
	}
	return times, nil
}

// FlowSizeBytes draws a flow size from a bounded Pareto distribution
// (heavy-tailed, like Internet flows): minimum minB, shape alpha, capped at
// maxB.
func FlowSizeBytes(minB, maxB int64, alpha float64, rng *rand.Rand) int64 {
	if minB <= 0 || maxB < minB || alpha <= 0 {
		return minB
	}
	u := rng.Float64()
	if u == 0 {
		u = 1e-12
	}
	v := float64(minB) / math.Pow(u, 1/alpha)
	if v > float64(maxB) {
		return maxB
	}
	return int64(v)
}
