package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/fluid"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// UsersScaleConfig parameterises E18: the fluid-aggregation scale-out. A
// fixed +Grid Walker Delta serves an effective user population swept over
// orders of magnitude; because the fluid model evolves (city-pair × class)
// aggregates rather than per-user transfers, the work per cell is
// O(aggregates × epochs) and wall time must stay near-flat as Users grows —
// the property the CI scaling gate asserts.
type UsersScaleConfig struct {
	// UserCounts are the swept effective populations.
	UserCounts []int
	// Sats sizes the Walker Delta. It must be large enough that the +Grid
	// in-plane spacing stays inside laser ISL range (≥64 at 550 km).
	Sats           int
	AltitudeKm     float64
	InclinationDeg float64
	// Gateways places ground stations at the N most populous world cities.
	Gateways int
	// DurationS/IntervalS set the horizon and the epoch cadence.
	DurationS, IntervalS float64
	// KPaths is the allocator's path diversity per demand.
	KPaths int
	// Classes is the traffic mix; nil means fluid.DefaultClasses.
	Classes []fluid.Class
	Seed    int64
	Workers int // parallel cell workers; ≤0 = one per CPU
}

// DefaultUsersScale sweeps 10⁴ → 10⁷ users over a 500-satellite Starlink
// shell (550 km, 53°, all-laser +Grid) with gateways at the eight most
// populous cities — the constellation DefaultCapacityScale starts from.
func DefaultUsersScale() UsersScaleConfig {
	return UsersScaleConfig{
		UserCounts:     []int{10_000, 100_000, 1_000_000, 10_000_000},
		Sats:           500,
		AltitudeKm:     550,
		InclinationDeg: 53,
		Gateways:       8,
		DurationS:      600,
		IntervalS:      60,
		KPaths:         4,
		Seed:           21,
	}
}

// usersScaleRow is one swept population's aggregated measurements.
type usersScaleRow struct {
	users      int
	offeredBps float64 // analytic long-run offered load of the class matrix
	fr         *fluid.Result
	wallS      float64 // rendered, never written to the CSV (determinism)
}

// UsersScaleResult carries the sweep's series plus per-cell detail.
type UsersScaleResult struct {
	OfferedGbps []float64  // per swept population
	Carried     sim.Series // log10(users) vs carried Gbps
	Delivered   sim.Series // log10(users) vs delivered fraction
	P95         sim.Series // log10(users) vs p95 latency (s)
	Wall        sim.Series // log10(users) vs wall seconds (not in the CSV)

	classes []fluid.Class
	rows    []usersScaleRow
}

// WallS returns the measured wall time of the cell for the given user
// count, 0 if that population was not swept.
func (r *UsersScaleResult) WallS(users int) float64 {
	for _, row := range r.rows {
		if row.users == users {
			return row.wallS
		}
	}
	return 0
}

// UsersScale runs E18. The topology snapshots, and each epoch's
// recapacitated Network, are built once and shared read-only across cells;
// each cell owns its class matrix and evolver, and every aggregate's
// arrival stream is seeded from its own coordinates, so the CSV is
// byte-identical at any worker count.
func UsersScale(cfg UsersScaleConfig) (*UsersScaleResult, error) {
	if len(cfg.UserCounts) == 0 {
		return nil, fmt.Errorf("experiments: users-scale: no user counts")
	}
	for _, u := range cfg.UserCounts {
		if u <= 0 {
			return nil, fmt.Errorf("experiments: users-scale: user count %d must be positive", u)
		}
	}
	if cfg.Sats <= 0 || cfg.Gateways < 2 {
		return nil, fmt.Errorf("experiments: users-scale: need satellites and ≥ 2 gateways")
	}
	if cfg.DurationS <= 0 || cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("experiments: users-scale: duration and interval must be positive")
	}

	// One deterministic constellation and one snapshot per epoch, shared by
	// every swept population: the sweep isolates the user-count effect.
	w, err := orbit.SquareWalkerDelta(cfg.Sats, cfg.AltitudeKm, cfg.InclinationDeg)
	if err != nil {
		return nil, fmt.Errorf("experiments: users-scale: %w", err)
	}
	c, err := w.Build()
	if err != nil {
		return nil, fmt.Errorf("experiments: users-scale: %w", err)
	}
	tcfg := topo.DefaultConfig()
	if tcfg.StaticISLs, err = w.GridISLs(w.DefaultGrid()); err != nil {
		return nil, fmt.Errorf("experiments: users-scale: %w", err)
	}
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: true}
	}
	gws := traffic.TopCityGateways(cfg.Gateways)
	groundSpecs := make([]topo.GroundSpec, len(gws))
	for i, g := range gws {
		groundSpecs[i] = topo.GroundSpec{ID: g.ID, Provider: "p", Pos: g.Pos}
	}
	epochs := int(math.Ceil(cfg.DurationS / cfg.IntervalS))
	snaps, err := exec.Map(cfg.Workers, epochs, func(e int) (*topo.Snapshot, error) {
		return topo.Build(float64(e)*cfg.IntervalS, tcfg, specs, groundSpecs, nil), nil
	})
	if err != nil {
		return nil, err
	}
	// Each epoch's recapacitated Network is shared by every cell: the first
	// cell to reach the epoch builds it, and since a Network memoises its
	// routes, each gateway pair is routed once per epoch for all cells.
	model := traffic.DefaultCapacityModel()
	nets := make([]func() *traffic.Network, epochs)
	for e, snap := range snaps {
		nets[e] = sync.OnceValue(func() *traffic.Network {
			net := traffic.NewNetwork(snap)
			net.Recapacitate(model)
			return net
		})
	}

	rows, err := exec.Map(cfg.Workers, len(cfg.UserCounts), func(i int) (usersScaleRow, error) {
		fcfg := fluid.Config{
			Users:   cfg.UserCounts[i],
			Classes: cfg.Classes,
			KPaths:  cfg.KPaths,
			Seed:    cfg.Seed,
		}
		start := time.Now() //lint:allow nondeterm wall time is reported for the scaling gate, never fed back into results
		m, err := fluid.BuildClassMatrix(fcfg)
		if err != nil {
			return usersScaleRow{}, err
		}
		ev, err := fluid.NewEvolver(m, fcfg, gws)
		if err != nil {
			return usersScaleRow{}, err
		}
		for e := 0; e < epochs; e++ {
			t0 := float64(e) * cfg.IntervalS
			t1 := t0 + cfg.IntervalS
			if t1 > cfg.DurationS {
				t1 = cfg.DurationS
			}
			if err := ev.AdvanceOn(nets[e](), t0, t1, e); err != nil {
				return usersScaleRow{}, err
			}
		}
		return usersScaleRow{
			users:      cfg.UserCounts[i],
			offeredBps: m.OfferedBps(),
			fr:         ev.Result(),
			wallS:      time.Since(start).Seconds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &UsersScaleResult{
		Carried:   sim.Series{Name: "carried traffic (Gbps)"},
		Delivered: sim.Series{Name: "delivered fraction"},
		P95:       sim.Series{Name: "p95 latency (s)"},
		Wall:      sim.Series{Name: "wall time (s)"},
		rows:      rows,
	}
	if cfg.Classes != nil {
		res.classes = cfg.Classes
	} else {
		res.classes = fluid.DefaultClasses()
	}
	for _, row := range rows {
		x := math.Log10(float64(row.users))
		res.OfferedGbps = append(res.OfferedGbps, row.offeredBps/1e9)
		res.Carried.Append(x, row.fr.CarriedBps()/1e9, 0)
		res.Delivered.Append(x, row.fr.DeliveredFraction(), 0)
		res.P95.Append(x, row.fr.Latency.Quantile(0.95), 0)
		res.Wall.Append(x, row.wallS, 0)
	}
	return res, nil
}

// CSV writes one row per swept population. Wall time is deliberately
// excluded: the file must be byte-identical at any worker count and across
// machines, the same contract every other experiment CSV honours.
func (r *UsersScaleResult) CSV(w io.Writer) error {
	header := []string{
		"users", "offered_gbps", "carried_gbps",
		"transfers_attempted", "transfers_delivered", "delivered_fraction",
		"local_transfers", "bytes_gb", "retries", "recovered", "abandoned", "pending",
		"latency_p50_ms", "latency_p95_ms",
	}
	for _, cl := range r.classes {
		header = append(header, cl.Name+"_p50_ms", cl.Name+"_p95_ms")
	}
	var rows [][]string
	for i, row := range r.rows {
		fr := row.fr
		rec := []string{
			d(row.users), f(r.OfferedGbps[i]), f(fr.CarriedBps() / 1e9),
			fmt.Sprintf("%d", fr.TransfersAttempted),
			fmt.Sprintf("%d", fr.TransfersDelivered),
			f(fr.DeliveredFraction()),
			fmt.Sprintf("%d", fr.LocalTransfers),
			f(float64(fr.BytesDelivered) / 1e9),
			fmt.Sprintf("%d", fr.Retries),
			fmt.Sprintf("%d", fr.Recovered),
			fmt.Sprintf("%d", fr.Abandoned),
			fmt.Sprintf("%d", fr.PendingTransfers),
			f(fr.Latency.Quantile(0.5) * 1000), f(fr.Latency.Quantile(0.95) * 1000),
		}
		for _, cls := range fr.PerClass {
			rec = append(rec, f(cls.Latency.Quantile(0.5)*1000), f(cls.Latency.Quantile(0.95)*1000))
		}
		rows = append(rows, rec)
	}
	return WriteCSV(w, header, rows)
}

// Render draws carried capacity and delivered fraction against log₁₀ users,
// then prints the per-cell wall times the scaling gate watches.
func (r *UsersScaleResult) Render(w io.Writer) error {
	if err := RenderSeries(w, "Users-scale (E18): carried capacity vs population (fluid aggregation)",
		"log10(users)", "Gbps", []*sim.Series{&r.Carried}, 60, 12); err != nil {
		return err
	}
	if err := RenderSeries(w, "Users-scale (E18): delivery and tail latency",
		"log10(users)", "fraction / s", []*sim.Series{&r.Delivered, &r.P95}, 60, 10); err != nil {
		return err
	}
	for _, row := range r.rows {
		if _, err := fmt.Fprintf(w,
			"users %-10d wall %6.2f s | attempted %d delivered %d (%.1f%%) | carried %.2f Gbps | p95 %.0f ms\n",
			row.users, row.wallS, row.fr.TransfersAttempted, row.fr.TransfersDelivered,
			row.fr.DeliveredFraction()*100, row.fr.CarriedBps()/1e9,
			row.fr.Latency.Quantile(0.95)*1000); err != nil {
			return err
		}
	}
	return nil
}
