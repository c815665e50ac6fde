package faults

import (
	"math"
	"testing"

	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// recoverySnapshot builds three parallel routes src→{a,b,c}→dst with
// increasing delay, plus an unreachable island node. With Backups=2 the
// protected candidates are the a- and b-routes; the c-route is only
// reachable through a full recompute.
func recoverySnapshot(t *testing.T) *topo.Snapshot {
	t.Helper()
	nodes := []topo.Node{
		{ID: "src", Kind: topo.KindUser},
		{ID: "a", Kind: topo.KindSatellite},
		{ID: "b", Kind: topo.KindSatellite},
		{ID: "c", Kind: topo.KindSatellite},
		{ID: "dst", Kind: topo.KindGroundStation},
		{ID: "island", Kind: topo.KindGroundStation},
	}
	mk := func(from, to int32, delay float64) []topo.Edge {
		return []topo.Edge{
			{From: from, To: to, Kind: topo.LinkISLRF, DelayS: delay, CapacityBps: 1e9},
			{From: to, To: from, Kind: topo.LinkISLRF, DelayS: delay, CapacityBps: 1e9},
		}
	}
	const src, dst = 0, 4 // positions in nodes; a, b and c are 1 to 3
	var edges []topo.Edge
	for i, via := range []int32{1, 2, 3} {
		d := 0.01 * float64(i+1)
		edges = append(edges, mk(src, via, d)...)
		edges = append(edges, mk(via, dst, d)...)
	}
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFlowSurvivesISLFailureViaBackup is the acceptance scenario: an ISL on
// the active path fails mid-run and the flow rides out the outage on its
// precomputed edge-disjoint backup, down only for detection + FRR switch.
func TestFlowSurvivesISLFailureViaBackup(t *testing.T) {
	snap := recoverySnapshot(t)
	tl := &Timeline{HorizonS: 100, Events: []Event{
		{Kind: KindISLFlap, From: "a", To: "dst", StartS: 10, EndS: 20},
	}}
	rc := DefaultRecovery()
	res, err := RunFlows(snap, []FlowSpec{{ID: "f0", Src: "src", Dst: "dst"}}, tl, rc, routing.LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.NoPath {
		t.Fatal("flow has a path on the intact topology")
	}
	if f.Avail.Interruptions != 1 || f.Avail.Reroutes != 1 {
		t.Fatalf("interruptions=%d reroutes=%d, want 1 reroute for 1 interruption",
			f.Avail.Interruptions, f.Avail.Reroutes)
	}
	wantDown := rc.DetectS + rc.FRRSwitchS
	if math.Abs(f.Avail.DowntimeS-wantDown) > 1e-9 {
		t.Errorf("downtime = %v s, want detect+switch = %v s", f.Avail.DowntimeS, wantDown)
	}
	if !f.OnBackup {
		t.Error("flow must end the run on its backup path")
	}
	if got := f.Avail.Availability(res.HorizonS); got <= 0.999 || got >= 1 {
		t.Errorf("availability = %v, want just under 1", got)
	}
	if res.FaultTransitions != 2 {
		t.Errorf("fault transitions = %d, want failure + repair", res.FaultTransitions)
	}
}

// TestRecomputeWhenAllBackupsDead: both precomputed candidates die, so the
// slow path recomputes a route on the degraded snapshot and adopts it.
func TestRecomputeWhenAllBackupsDead(t *testing.T) {
	snap := recoverySnapshot(t)
	tl := &Timeline{HorizonS: 100, Events: []Event{
		{Kind: KindSatFailure, Node: "a", StartS: 10, EndS: 1e6},
		{Kind: KindSatFailure, Node: "b", StartS: 10, EndS: 1e6},
	}}
	rc := DefaultRecovery()
	rc.Backups = 2 // candidates via a and b only; c needs a recompute
	res, err := RunFlows(snap, []FlowSpec{{ID: "f0", Src: "src", Dst: "dst"}}, tl, rc, routing.LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Avail.IsDown() {
		t.Fatal("flow must recover via recompute onto the c-route")
	}
	if f.Avail.Interruptions != 1 {
		t.Errorf("interruptions = %d, want 1", f.Avail.Interruptions)
	}
	// The first repair attempt fast-reroutes onto the b-candidate, which is
	// already dead when the switchover lands; the retry recomputes. Total
	// outage: detect+switch (wasted FRR) then detect+recompute.
	wantDown := (rc.DetectS + rc.FRRSwitchS) + (rc.DetectS + rc.RecomputeS)
	if math.Abs(f.Avail.DowntimeS-wantDown) > 1e-9 {
		t.Errorf("downtime = %v s, want %v s", f.Avail.DowntimeS, wantDown)
	}
	if f.Avail.Reroutes != 0 {
		t.Errorf("reroutes = %d; a recompute recovery is not a fast reroute", f.Avail.Reroutes)
	}
	if !f.OnBackup {
		t.Error("an adopted recompute path is off-primary")
	}
}

// TestOutageWithNoRouteLastsUntilRepair: a single-path flow stays down for
// the whole fault interval when no alternative exists.
func TestOutageWithNoRouteLastsUntilRepair(t *testing.T) {
	nodes := []topo.Node{
		{ID: "src", Kind: topo.KindUser},
		{ID: "m", Kind: topo.KindSatellite},
		{ID: "dst", Kind: topo.KindGroundStation},
	}
	const src, m, dst = 0, 1, 2 // positions in nodes
	edges := []topo.Edge{
		{From: src, To: m, Kind: topo.LinkISLRF, DelayS: 0.01, CapacityBps: 1e9},
		{From: m, To: src, Kind: topo.LinkISLRF, DelayS: 0.01, CapacityBps: 1e9},
		{From: m, To: dst, Kind: topo.LinkISLRF, DelayS: 0.01, CapacityBps: 1e9},
		{From: dst, To: m, Kind: topo.LinkISLRF, DelayS: 0.01, CapacityBps: 1e9},
	}
	snap, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	tl := &Timeline{HorizonS: 100, Events: []Event{
		{Kind: KindSatFailure, Node: "m", StartS: 10, EndS: 30},
	}}
	rc := DefaultRecovery()
	res, err := RunFlows(snap, []FlowSpec{{ID: "f0", Src: "src", Dst: "dst"}}, tl, rc, routing.LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.Avail.IsDown() {
		t.Fatal("flow must come back after the repair")
	}
	// Down from the failure at 10 until repair at 30 plus one detect+switch
	// to re-install the (repaired) primary.
	wantDown := 20 + rc.DetectS + rc.FRRSwitchS
	if math.Abs(f.Avail.DowntimeS-wantDown) > 1e-9 {
		t.Errorf("downtime = %v s, want %v s", f.Avail.DowntimeS, wantDown)
	}
	if f.Avail.Interruptions != 1 {
		t.Errorf("interruptions = %d, want 1 (continuous outage)", f.Avail.Interruptions)
	}
}

func TestRunFlowsReportsNoPath(t *testing.T) {
	snap := recoverySnapshot(t)
	tl := &Timeline{HorizonS: 100}
	res, err := RunFlows(snap, []FlowSpec{
		{ID: "ok", Src: "src", Dst: "dst"},
		{ID: "stranded", Src: "src", Dst: "island"},
	}, tl, DefaultRecovery(), routing.LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].NoPath {
		t.Error("connected flow flagged NoPath")
	}
	if !res.Flows[1].NoPath {
		t.Error("stranded flow not flagged NoPath")
	}
	if a := res.Flows[0].Avail.Availability(res.HorizonS); a != 1 {
		t.Errorf("fault-free availability = %v, want 1", a)
	}
}

func TestRunFlowsValidation(t *testing.T) {
	snap := recoverySnapshot(t)
	tl := &Timeline{HorizonS: 100}
	bad := DefaultRecovery()
	bad.Backups = 0
	if _, err := RunFlows(snap, nil, tl, bad, routing.LatencyCost(0)); err == nil {
		t.Error("zero backups must be rejected")
	}
	if _, err := RunFlows(nil, nil, tl, DefaultRecovery(), routing.LatencyCost(0)); err == nil {
		t.Error("nil snapshot must be rejected")
	}
	if _, err := RunFlows(snap, nil, nil, DefaultRecovery(), routing.LatencyCost(0)); err == nil {
		t.Error("nil timeline must be rejected")
	}
	// A NaN or negative latency, or no path at all, must fail validation
	// rather than reach the engine (RunFlows panics on a delay the engine
	// refuses): this timeline exercises fast reroute and recompute, so each
	// delay would be scheduled.
	deadly := &Timeline{HorizonS: 100, Events: []Event{
		{Kind: KindSatFailure, Node: "a", StartS: 10, EndS: 1e6},
		{Kind: KindSatFailure, Node: "b", StartS: 10, EndS: 1e6},
	}}
	nan := math.NaN()
	for _, rc := range []RecoveryConfig{
		{Backups: 2, DetectS: nan, FRRSwitchS: 0.01, RecomputeS: 0.5},
		{Backups: 2, DetectS: 0.05, FRRSwitchS: nan, RecomputeS: 0.5},
		{Backups: 2, DetectS: 0.05, FRRSwitchS: 0.01, RecomputeS: nan},
		{Backups: 2, DetectS: -0.05, FRRSwitchS: 0.01, RecomputeS: 0.5},
		{Backups: 2, DetectS: 0.05, FRRSwitchS: -0.01, RecomputeS: 0.5},
		{Backups: 2, DetectS: 0.05, FRRSwitchS: 0.01, RecomputeS: -0.5},
		{Backups: 0, DetectS: 0.05, FRRSwitchS: 0.01, RecomputeS: 0.5},
	} {
		if _, err := RunFlows(snap, []FlowSpec{{ID: "f0", Src: "src", Dst: "dst"}}, deadly, rc, routing.LatencyCost(0)); err == nil {
			t.Errorf("invalid recovery config accepted: %+v", rc)
		}
	}
}
