package faults

import (
	"errors"
	"fmt"

	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// RecoveryConfig sets the repair machinery's latencies and depth.
type RecoveryConfig struct {
	// Backups is the number of edge-disjoint candidate paths precomputed
	// per flow (including the primary).
	Backups int
	// DetectS is the failure-detection latency: loss-of-light / missed
	// keepalives before the repair machinery reacts.
	DetectS float64
	// FRRSwitchS is the switchover time onto a precomputed backup once the
	// failure is detected (fast reroute).
	FRRSwitchS float64
	// RecomputeS is the slow-path latency: a full shortest-path recompute
	// on the degraded topology when no precomputed candidate survives.
	RecomputeS float64
}

// DefaultRecovery models optical-terminal loss-of-light detection (50 ms),
// a 10 ms label-switch onto a precomputed backup, and a 500 ms control-
// plane recompute, with 3 disjoint candidates per flow.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{Backups: 3, DetectS: 0.05, FRRSwitchS: 0.01, RecomputeS: 0.5}
}

// Validate rejects unusable recovery parameters.
func (rc RecoveryConfig) Validate() error {
	if rc.Backups < 1 {
		return fmt.Errorf("faults: recovery needs ≥ 1 path, got %d", rc.Backups)
	}
	if !(rc.DetectS >= 0) || !(rc.FRRSwitchS >= 0) || !(rc.RecomputeS >= 0) {
		return errors.New("faults: recovery latencies must be non-negative")
	}
	return nil
}

// FlowSpec names one protected flow.
type FlowSpec struct {
	ID, Src, Dst string
}

// FlowOutcome reports one flow after the run.
type FlowOutcome struct {
	ID string
	// NoPath marks flows that had no route even on the intact topology;
	// they carry no availability data.
	NoPath bool
	// OnBackup reports whether the flow ended the run off its primary path.
	OnBackup bool
	// Avail is the flow's outage ledger.
	Avail sim.FlowAvailability
}

// RunResult aggregates a RunFlows run.
type RunResult struct {
	HorizonS float64
	// FaultTransitions counts mask state changes (starts + repairs).
	FaultTransitions int
	// Flows holds one outcome per spec, in spec order.
	Flows []FlowOutcome
}

// RunFlows drives the protected flows through the fault timeline on a
// discrete-event engine and reports per-flow availability. Each flow gets
// rc.Backups edge-disjoint candidate paths up front; when a fault breaks a
// flow's active path the flow goes down, and after DetectS the repair
// machinery either fast-reroutes onto the first surviving candidate
// (FRRSwitchS) or recomputes a route on the degraded snapshot
// (RecomputeS). A flow with no live route stays down until a repair event
// makes one available — that outage is the availability cost E15 measures.
func RunFlows(snap *topo.Snapshot, specs []FlowSpec, tl *Timeline, rc RecoveryConfig, cost routing.CostFunc) (*RunResult, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if snap == nil || tl == nil {
		return nil, errors.New("faults: RunFlows needs a snapshot and a timeline")
	}
	type flow struct {
		spec    FlowSpec
		prot    *routing.Protected
		av      sim.FlowAvailability
		pending bool // a recovery completion is scheduled
	}
	res := &RunResult{HorizonS: tl.HorizonS}
	flows := make([]*flow, 0, len(specs))
	for _, spec := range specs {
		f := &flow{spec: spec}
		prot, err := routing.Protect(snap, spec.Src, spec.Dst, cost, rc.Backups)
		switch {
		case errors.Is(err, routing.ErrNoPath):
			// Disconnected even when healthy: excluded from availability.
		case err != nil:
			return nil, err
		default:
			f.prot = prot
		}
		flows = append(flows, f)
	}

	engine := sim.NewEngine()
	mask := NewMask()
	alive := func(p routing.Path) bool { return !mask.PathDown(p.Nodes) }

	// attemptRecovery attempts repair for a down flow and schedules its completion;
	// complete re-validates (the chosen path may have died while the
	// switchover was in flight) and either restores the flow or retries.
	var attemptRecovery func(f *flow, e *sim.Engine)
	complete := func(f *flow, viaBackup bool) func(*sim.Engine) {
		return func(e *sim.Engine) {
			f.pending = false
			if !f.av.IsDown() {
				return
			}
			if !alive(f.prot.Active()) {
				attemptRecovery(f, e)
				return
			}
			f.av.Up(e.Now(), viaBackup)
		}
	}
	attemptRecovery = func(f *flow, e *sim.Engine) {
		if f.pending {
			return
		}
		if _, ok := f.prot.Reroute(alive); ok {
			f.pending = true
			if err := e.After(rc.DetectS+rc.FRRSwitchS, complete(f, true)); err != nil {
				panic(err) // unreachable: RecoveryConfig.Validate rejects negative and NaN delays
			}
			return
		}
		p, err := routing.ShortestPath(mask.View(snap), f.spec.Src, f.spec.Dst, cost)
		if err != nil {
			return // no live route; the next repair event retries
		}
		f.prot.Adopt(p)
		f.pending = true
		if err := e.After(rc.DetectS+rc.RecomputeS, complete(f, false)); err != nil {
			panic(err) // unreachable: RecoveryConfig.Validate rejects negative and NaN delays
		}
	}

	onChange := func(e *sim.Engine, _ Event, _ bool) {
		res.FaultTransitions++
		for _, f := range flows {
			if f.prot == nil {
				continue
			}
			switch {
			case !f.av.IsDown() && !alive(f.prot.Active()):
				f.av.Down(e.Now())
				attemptRecovery(f, e)
			case f.av.IsDown() && !f.pending:
				// A repair may have revived a candidate or opened a route.
				attemptRecovery(f, e)
			}
		}
	}
	if err := tl.Drive(engine, mask, onChange); err != nil {
		return nil, err
	}
	engine.Run(tl.HorizonS)

	for _, f := range flows {
		out := FlowOutcome{ID: f.spec.ID, NoPath: f.prot == nil}
		if f.prot != nil {
			f.av.Finish(tl.HorizonS)
			out.Avail = f.av
			out.OnBackup = f.prot.OnBackup()
		}
		res.Flows = append(res.Flows, out)
	}
	return res, nil
}
