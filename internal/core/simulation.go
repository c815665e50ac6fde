package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/fluid"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/traffic"
)

// Scenario describes a workload to drive through a federation with the
// discrete-event engine: users send Poisson traffic to random gateways
// while their terminals hand over between satellites as the constellation
// moves.
type Scenario struct {
	// DurationS is the simulated horizon.
	DurationS float64
	// SnapshotIntervalS is the topology cadence (also the handover check
	// cadence).
	SnapshotIntervalS float64
	// PerUserRate is each user's transfer arrival rate (transfers/s).
	PerUserRate float64
	// MinBytes/MaxBytes bound the Pareto-distributed transfer sizes.
	MinBytes, MaxBytes int64
	// Seed drives workload randomness (independent of the network's seed).
	Seed int64
	// Faults optionally injects deterministic failures (satellite outages,
	// ISL flaps, ground weather, solar storms — see internal/faults). The
	// zero value disables injection and schedules no fault events.
	Faults faults.Config
	// Retry bounds the deterministic backoff for transfers that fail while
	// faults are active; the zero value means routing.DefaultBackoff().
	// Ignored when Faults is disabled.
	Retry routing.Backoff
	// Aggregate selects the mode. The zero value runs per-flow: one engine
	// event per transfer from the network's users. When enabled, fluid
	// mode buckets Aggregate.Users into (city-pair × class) aggregates
	// evolved through the max-min allocator once per snapshot interval; it
	// ignores PerUserRate, MinBytes, MaxBytes, Retry and the network's
	// users, and Aggregate.Seed falls back to Seed when zero.
	Aggregate fluid.Config
	// MaxEvents, when non-zero, bounds the number of engine events the run
	// may deliver — a deterministic, wall-clock-free timeout. A run that
	// needs more events returns an error wrapping ErrEventBudget, one that
	// needs exactly this many completes, and the zero value leaves runs
	// unbounded.
	MaxEvents uint64
}

// ErrEventBudget marks a scenario that stopped because it exhausted its
// MaxEvents budget. Because the budget counts simulated events — never
// wall-clock — exhaustion is reproducible: the same scenario exhausts the
// same budget at the same event on every machine. Callers distinguish it
// with errors.Is; the campaign supervisor treats it as a non-retryable
// timeout (re-running a deterministic run re-exhausts deterministically).
var ErrEventBudget = errors.New("core: simulated-event budget exhausted")

// Validate reports whether the scenario is runnable.
func (s Scenario) Validate() error {
	// !(x > 0) also rejects NaN. A non-finite horizon or a NaN interval
	// would only fail deep inside the topology build; a non-finite rate
	// would silently schedule no transfers or unboundedly many.
	if !(s.DurationS > 0) || math.IsInf(s.DurationS, 1) {
		return errors.New("core: scenario duration must be positive and finite")
	}
	if !(s.SnapshotIntervalS > 0) {
		return errors.New("core: snapshot interval must be positive")
	}
	if !s.Aggregate.Enabled() {
		// Per-flow workload knobs; fluid mode derives its workload from
		// the class matrix instead.
		if !(s.PerUserRate > 0) || math.IsInf(s.PerUserRate, 1) {
			return errors.New("core: per-user rate must be positive and finite")
		}
		if s.MinBytes <= 0 || s.MaxBytes < s.MinBytes {
			return fmt.Errorf("core: transfer size bounds [%d,%d] invalid", s.MinBytes, s.MaxBytes)
		}
	}
	if s.Faults.Enabled() {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
		// !(x >= 0) also rejects NaN.
		if r := s.Retry; !(r.BaseS >= 0) || !(r.MaxS >= 0) || math.IsInf(r.BaseS+r.MaxS, 1) || r.MaxAttempts < 0 {
			return fmt.Errorf("core: retry backoff %+v invalid", r)
		}
	}
	return nil
}

// ScenarioResult aggregates a scenario run.
type ScenarioResult struct {
	TransfersAttempted     int
	TransfersDelivered     int
	BytesDelivered         int64
	LatencyS               sim.Histogram
	Handovers              int
	CrossProviderHandovers int
	CarriageUSD            float64
	GatewayUSD             float64
	EventsProcessed        uint64

	// Fault-injection counters, all zero when Scenario.Faults is disabled.
	FaultEvents        int // fault state transitions observed (failures + repairs)
	DroppedTerminals   int // terminals forced back to idle by a serving-satellite outage
	Retries            int // transfer retry attempts scheduled
	RecoveredTransfers int // transfers delivered after at least one retry
	AbandonedTransfers int // transfers that exhausted the retry budget

	// Fluid is set exactly when the run was in fluid mode: per-class
	// counters and bounded-memory latency sketches. Fluid runs leave
	// LatencyS (see Fluid.Latency), the handover and the economics
	// counters at 0; aggregates carry neither terminals nor pricing.
	Fluid *fluid.Result
}

// DeliveryRate returns the delivered fraction.
func (r *ScenarioResult) DeliveryRate() float64 {
	if r.TransfersAttempted == 0 {
		return 0
	}
	return float64(r.TransfersDelivered) / float64(r.TransfersAttempted)
}

// RunScenario drives the workload through the network on a discrete-event
// engine, in either mode (see Scenario.Aggregate and scenarioMode): build
// the topology, drive the fault timeline, schedule the workload, then tick
// once per snapshot interval. Per-flow mode needs users added. The engine
// breaks same-instant ties in scheduling order, so faults go before the
// workload (failures land before the transfers that must route around
// them), and both before the first tick.
func (n *Network) RunScenario(sc Scenario) (*ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if !sc.Aggregate.Enabled() && len(n.users) == 0 {
		return nil, errors.New("core: scenario needs at least one user")
	}
	if err := n.BuildTopology(0, sc.DurationS, sc.SnapshotIntervalS); err != nil {
		return nil, err
	}
	res := &ScenarioResult{}
	mode := n.perFlowMode
	if sc.Aggregate.Enabled() {
		mode = n.fluidMode
	}
	m, err := mode(sc, res)
	if err != nil {
		return nil, err
	}

	engine := sim.NewEngine()
	engine.MaxEvents = sc.MaxEvents
	// The fault timeline is generated over the intact t=0 snapshot. Once
	// the mask is installed, every snapshot read sees its current view.
	if sc.Faults.Enabled() {
		tl, err := faults.Generate(sc.Faults, sc.DurationS, faults.InputsFromSnapshot(n.te.At(0)))
		if err != nil {
			return nil, err
		}
		mask := faults.NewMask()
		n.mask = mask
		onChange := func(_ *sim.Engine, _ faults.Event, down bool) {
			res.FaultEvents++
			m.onFault(mask, down)
		}
		if err := tl.Drive(engine, mask, onChange); err != nil {
			return nil, err
		}
	}
	if err := m.schedule(engine); err != nil {
		return nil, err
	}

	// One tick per snapshot interval, each covering [t0, t1).
	var tickErr error
	var tick func(*sim.Engine)
	tick = func(e *sim.Engine) {
		t0 := e.Now()
		t1 := math.Min(t0+sc.SnapshotIntervalS, sc.DurationS)
		if tickErr = m.tick(t0, t1); tickErr != nil {
			return
		}
		if t1 < sc.DurationS {
			if err := e.Schedule(t1, tick); err != nil {
				panic(err) // unreachable: t1 > now ≥ 0 while the engine runs
			}
		}
	}
	if err := engine.Schedule(0, tick); err != nil {
		return nil, err
	}
	engine.Run(sc.DurationS)
	if tickErr != nil {
		return nil, fmt.Errorf("core: scenario: %w", tickErr)
	}
	if engine.Exhausted() {
		return nil, fmt.Errorf("core: scenario stopped after %d events: %w", engine.Processed, ErrEventBudget)
	}
	res.EventsProcessed = engine.Processed
	m.finish()
	return res, nil
}

// scenarioMode is what per-flow and fluid runs do differently inside
// RunScenario. Its closures write into the run's result.
type scenarioMode struct {
	onFault  func(mask *faults.Mask, down bool) // after each fault transition
	schedule func(e *sim.Engine) error          // enqueue the workload's events
	tick     func(t0, t1 float64) error         // once per interval [t0, t1)
	finish   func()                             // complete the result after the run
}

// perFlowMode associates every user at t=0 and returns the per-flow hooks:
// Poisson transfer arrivals per user, each sent to the completion-optimal
// gateway and retried under faults, and a tick that re-associates users
// in a coverage gap and hands the others over before their satellite sets.
func (n *Network) perFlowMode(sc Scenario, res *ScenarioResult) (scenarioMode, error) {
	userIDs := sortedKeys(n.users)
	associated := map[string]bool{}
	for _, id := range userIDs {
		if err := n.Associate(id, 0); err == nil {
			associated[id] = true
		}
	}
	faultsOn := sc.Faults.Enabled()
	retry := sc.Retry
	if retry == (routing.Backoff{}) {
		retry = routing.DefaultBackoff()
	}

	// A failed send retries with bounded deterministic backoff when faults
	// are enabled; the engine's deterministic tie-break replaces jitter.
	var attemptSend func(e *sim.Engine, id string, bytes int64, attempt int)
	attemptSend = func(e *sim.Engine, id string, bytes int64, attempt int) {
		if associated[id] {
			if d, _, err := n.SendBest(id, bytes, e.Now()); err == nil {
				res.TransfersDelivered++
				res.BytesDelivered += bytes
				res.LatencyS.Add(d.LatencyS)
				res.CarriageUSD += d.CarriageUSD
				res.GatewayUSD += d.GatewayFeeUSD
				if attempt > 0 {
					res.RecoveredTransfers++
				}
				return
			}
		}
		if !faultsOn {
			return // fault-free runs never retry
		}
		delay, ok := retry.DelayS(attempt)
		if !ok || e.Now()+delay >= sc.DurationS {
			res.AbandonedTransfers++
			return
		}
		res.Retries++
		if err := e.After(delay, func(e *sim.Engine) {
			attemptSend(e, id, bytes, attempt+1)
		}); err != nil {
			panic(err) // unreachable: Validate rejects a negative or NaN backoff
		}
	}

	return scenarioMode{
		// A failure drops the terminals whose serving satellite died; they
		// re-associate at the next tick.
		onFault: func(mask *faults.Mask, down bool) {
			if !down {
				return
			}
			for _, id := range userIDs {
				if !associated[id] {
					continue
				}
				u := n.users[id]
				serving, _ := u.Terminal.Serving()
				if mask.NodeDown(serving) {
					u.Terminal.Dropped()
					associated[id] = false
					res.DroppedTerminals++
				}
			}
		},
		schedule: func(engine *sim.Engine) error {
			rng := exec.DomainRNG(sc.Seed, domainScenario)
			for _, id := range userIDs {
				arrivals, err := sim.PoissonArrivals(sc.PerUserRate, sc.DurationS, rng)
				if err != nil {
					return err
				}
				for _, at := range arrivals {
					bytes := sim.FlowSizeBytes(sc.MinBytes, sc.MaxBytes, 1.2, rng)
					if err := engine.Schedule(at, func(e *sim.Engine) {
						res.TransfersAttempted++
						attemptSend(e, id, bytes, 0)
					}); err != nil {
						return err
					}
				}
			}
			return nil
		},
		tick: func(now, _ float64) error {
			for _, id := range userIDs {
				if !associated[id] {
					if err := n.Associate(id, now); err == nil {
						associated[id] = true
					}
					continue
				}
				plan, err := n.PlanHandover(id, now, sc.SnapshotIntervalS)
				if err != nil {
					continue // serving satellite outlives this interval
				}
				if plan.SetTimeS <= now+sc.SnapshotIntervalS {
					if err := n.ExecuteHandover(id, plan); err == nil {
						res.Handovers++
						if plan.CrossProvider {
							res.CrossProviderHandovers++
						}
					}
				}
			}
			return nil
		},
		finish: func() {},
	}, nil
}

// fluidMode returns RunScenario's fluid-mode hooks: instead of one engine
// event per transfer, each tick evolves the class matrix through the
// max-min allocator over the snapshot current at its start (fault overlay
// included), so the event count is O(epochs + fault transitions).
func (n *Network) fluidMode(sc Scenario, res *ScenarioResult) (scenarioMode, error) {
	cfg := sc.Aggregate
	if cfg.Seed == 0 {
		cfg.Seed = sc.Seed
	}
	m, err := fluid.BuildClassMatrix(cfg)
	if err != nil {
		return scenarioMode{}, err
	}
	// Every ground station doubles as a candidate gateway, the same set
	// SendBest ranks on the per-flow path.
	var gws []traffic.Gateway
	for _, st := range n.stations {
		gws = append(gws, traffic.Gateway{ID: st.ID, Pos: st.Pos})
	}
	ev, err := fluid.NewEvolver(m, cfg, gws)
	if err != nil {
		return scenarioMode{}, err
	}
	epoch := 0
	return scenarioMode{
		schedule: func(*sim.Engine) error { return nil }, // traffic arrives per epoch
		// Epochs while any element is masked charge gateway-remapping
		// events to the fluid interruption counter (the aggregate-mode
		// analogue of dropping a terminal when its satellite dies).
		onFault: func(mask *faults.Mask, _ bool) { ev.SetFaultsActive(!mask.Empty()) },
		tick: func(t0, t1 float64) error {
			snap := n.snapshotAt(t0)
			if snap == nil {
				return errors.New("core: no topology snapshot for aggregate epoch")
			}
			if err := ev.Advance(snap, t0, t1, epoch); err != nil {
				return err
			}
			epoch++
			return nil
		},
		finish: func() {
			fr := ev.Result()
			res.TransfersAttempted = int(fr.TransfersAttempted)
			res.TransfersDelivered = int(fr.TransfersDelivered)
			res.BytesDelivered = fr.BytesDelivered
			res.Retries = int(fr.Retries)
			res.RecoveredTransfers = int(fr.Recovered)
			res.AbandonedTransfers = int(fr.Abandoned)
			// Fluid interruption events fill the per-flow DroppedTerminals
			// slot: both count in-flight traffic whose serving
			// infrastructure a fault yanked away, so E17 cells report
			// comparable availability in either mode (the residual
			// reroute-modelling difference is documented in EXPERIMENTS.md).
			res.DroppedTerminals = int(fr.Interrupted)
			res.Fluid = fr
		},
	}, nil
}
