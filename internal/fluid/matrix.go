package fluid

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/sim"
)

// domainArrivals separates aggregate arrival streams from every other
// seed consumer (core reserves domains 1 and 2 for topology and scenario
// randomness). The ID predates the tag, so realised arrivals stay
// byte-identical to the numeric-domain era.
var domainArrivals = exec.Domain{Tag: "fluid/arrivals", ID: 3}

// perHopS is the per-hop processing delay added to propagation when
// de-aggregating latencies: 1 ms, core's default PerHopProcessingS. The
// latency sketches use sim.DefaultSketch's 1 % accuracy.
const perHopS = 0.001

// Config parameterises aggregate (fluid) mode. The zero value is
// disabled: Scenario embeds a Config, and Users == 0 keeps the per-flow
// path byte-identical to what it produced before this subsystem existed.
type Config struct {
	// Users is the effective user population spread over the world-city
	// catalogue. 0 disables aggregate mode.
	Users int
	// Classes is the traffic mix; nil means DefaultClasses.
	Classes []Class
	// KPaths is the allocator's path diversity per demand; ≤ 0 means 4.
	KPaths int
	// MaxRetryEpochs is how many epochs a backlogged transfer survives
	// unserved before it is abandoned; ≤ 0 means 3.
	MaxRetryEpochs int
	// Seed roots every aggregate's arrival stream.
	Seed int64
}

// Enabled reports whether aggregate mode is on.
func (c Config) Enabled() bool { return c.Users > 0 }

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Classes == nil {
		c.Classes = DefaultClasses()
	}
	if c.KPaths <= 0 {
		c.KPaths = 4
	}
	if c.MaxRetryEpochs <= 0 {
		c.MaxRetryEpochs = 3
	}
	return c
}

// Aggregate is one (source city, destination city, class) traffic stream:
// the unit the fluid model evolves instead of individual transfers.
type Aggregate struct {
	// Src and Dst index ClassMatrix.Cities; Class indexes
	// ClassMatrix.Classes.
	Src, Dst, Class int
	// Users is the effective (fractional) user count behind the stream.
	Users float64
	// LambdaPerS is the aggregate Poisson arrival rate: Users × per-user
	// rate. Arrival realisations draw from exec.RNG(Seed, epoch).
	LambdaPerS float64
	// MeanBytes is the class's analytic mean transfer size.
	MeanBytes float64
	// Seed is this stream's own exec.Seed domain, so realised arrivals
	// depend only on (scenario seed, aggregate coordinates, epoch) — never
	// on worker count or evaluation order.
	Seed int64
}

// OfferedBps is the aggregate's long-run offered load.
func (a Aggregate) OfferedBps() float64 { return a.LambdaPerS * a.MeanBytes * 8 }

// ClassMatrix buckets a user population into (city-pair × class)
// aggregates with analytically-derived rates and volumes. Sources and
// destinations both follow the population weights of sim.WorldCities —
// the same gravity-model assumption traffic.BuildDemandMatrix samples
// per-user; here the expectation is taken in closed form, so building the
// matrix costs O(cities² × classes) regardless of Users.
type ClassMatrix struct {
	Cities     []sim.City
	Classes    []Class
	Aggregates []Aggregate
	// Users echoes the configured population.
	Users int
}

// BuildClassMatrix derives the aggregate matrix from the config.
func BuildClassMatrix(cfg Config) (*ClassMatrix, error) {
	cfg = cfg.withDefaults()
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("fluid: user population %d must be positive", cfg.Users)
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("fluid: no traffic classes")
	}
	var classTotal float64
	for _, cl := range cfg.Classes {
		if err := cl.Validate(); err != nil {
			return nil, err
		}
		classTotal += cl.UserShare
	}
	cities := sim.WorldCities()
	var pop float64
	for _, c := range cities {
		pop += c.PopM
	}
	m := &ClassMatrix{
		Cities:     cities,
		Classes:    cfg.Classes,
		Users:      cfg.Users,
		Aggregates: make([]Aggregate, 0, len(cities)*len(cities)*len(cfg.Classes)),
	}
	for i, src := range cities {
		for j, dst := range cities {
			// i == j pairs stay: both endpoints usually map to the same
			// gateway and are counted as local traffic, mirroring
			// DemandMatrix.LocalUsers — but under faults the mapping can
			// diverge, so the classification happens per epoch, not here.
			pairShare := (src.PopM / pop) * (dst.PopM / pop)
			for ci, cl := range cfg.Classes {
				users := float64(cfg.Users) * pairShare * cl.UserShare / classTotal
				m.Aggregates = append(m.Aggregates, Aggregate{
					Src:        i,
					Dst:        j,
					Class:      ci,
					Users:      users,
					LambdaPerS: users * cl.RatePerUserS,
					MeanBytes:  cl.MeanBytes(),
					Seed:       exec.DomainSeed(cfg.Seed, domainArrivals, int64(i), int64(j), int64(ci)),
				})
			}
		}
	}
	return m, nil
}

// OfferedBps is the matrix's total analytic offered load.
func (m *ClassMatrix) OfferedBps() float64 {
	var total float64
	for _, a := range m.Aggregates {
		total += a.OfferedBps()
	}
	return total
}
