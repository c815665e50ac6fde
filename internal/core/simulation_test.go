package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/routing"
)

func scenarioNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(threeProviderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range []geo.LatLon{
		{Lat: 40.44, Lon: -79.99},
		{Lat: -1.29, Lon: 36.82},
		{Lat: 51.51, Lon: -0.13},
	} {
		isp := []string{"acme", "orbitco", "skynet"}[i]
		if _, err := n.AddUser(userName(i), isp, pos); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func userName(i int) string { return string(rune('a'+i)) + "-user" }

func TestScenarioValidate(t *testing.T) {
	good := Scenario{DurationS: 100, SnapshotIntervalS: 10, PerUserRate: 0.1, MinBytes: 1, MaxBytes: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good scenario rejected: %v", err)
	}
	cases := []func(*Scenario){
		func(s *Scenario) { s.DurationS = 0 },
		func(s *Scenario) { s.DurationS = math.NaN() },
		func(s *Scenario) { s.DurationS = math.Inf(1) },
		func(s *Scenario) { s.SnapshotIntervalS = 0 },
		func(s *Scenario) { s.SnapshotIntervalS = math.NaN() },
		func(s *Scenario) { s.PerUserRate = 0 },
		func(s *Scenario) { s.PerUserRate = math.NaN() },
		func(s *Scenario) { s.PerUserRate = math.Inf(1) },
		func(s *Scenario) { s.MinBytes = 0 },
		func(s *Scenario) { s.MaxBytes = 0 },
		func(s *Scenario) { s.Faults = faults.Config{SatMTBFS: 3600} }, // enabled but MTTR zero
	}
	for i, mutate := range cases {
		sc := good
		mutate(&sc)
		if sc.Validate() == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestRunScenarioEndToEnd(t *testing.T) {
	n := scenarioNetwork(t)
	sc := Scenario{
		DurationS:         900,
		SnapshotIntervalS: 60,
		PerUserRate:       0.05, // ~45 transfers per user over 15 min
		MinBytes:          1_000_000,
		MaxBytes:          100_000_000,
		Seed:              9,
	}
	res, err := n.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransfersAttempted == 0 {
		t.Fatal("no transfers attempted")
	}
	// Full Iridium: essentially everything should deliver.
	if res.DeliveryRate() < 0.9 {
		t.Errorf("delivery rate %v", res.DeliveryRate())
	}
	if res.LatencyS.Count() != res.TransfersDelivered {
		t.Errorf("latency samples %d vs delivered %d", res.LatencyS.Count(), res.TransfersDelivered)
	}
	if res.LatencyS.Mean() <= 0 || res.LatencyS.Mean() > 2 {
		t.Errorf("mean latency %v s implausible", res.LatencyS.Mean())
	}
	// 15 minutes of LEO must force handovers for someone.
	if res.Handovers == 0 {
		t.Error("no handovers in 15 minutes of LEO motion")
	}
	if res.CarriageUSD <= 0 || res.GatewayUSD <= 0 {
		t.Errorf("fees not accumulated: carriage %v gateway %v", res.CarriageUSD, res.GatewayUSD)
	}
	if res.EventsProcessed == 0 {
		t.Error("engine processed nothing")
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 4,
	}
	a, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.TransfersAttempted != b.TransfersAttempted ||
		a.TransfersDelivered != b.TransfersDelivered ||
		a.BytesDelivered != b.BytesDelivered ||
		a.Handovers != b.Handovers {
		t.Errorf("scenario not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestRunScenarioWithFaults drives the workload through an aggressive fault
// environment: satellites die, terminals re-associate, transfers retry with
// backoff — and traffic still flows.
func TestRunScenarioWithFaults(t *testing.T) {
	n := scenarioNetwork(t)
	sc := Scenario{
		DurationS:         900,
		SnapshotIntervalS: 60,
		PerUserRate:       0.05,
		MinBytes:          1_000_000,
		MaxBytes:          100_000_000,
		Seed:              9,
		Faults:            faults.Default().Scale(40), // MTBFs shrunk 40×
	}
	res, err := n.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents == 0 {
		t.Fatal("40× default fault rates over 15 min produced no fault events")
	}
	if res.TransfersDelivered == 0 {
		t.Error("no transfer survived the fault environment")
	}
	if res.DroppedTerminals == 0 {
		t.Error("satellite failures at this rate should drop someone's terminal")
	}
	if res.LatencyS.Count() != res.TransfersDelivered {
		t.Errorf("latency samples %d vs delivered %d", res.LatencyS.Count(), res.TransfersDelivered)
	}
}

// TestRunScenarioFaultsDeterministic pins the fault path's reproducibility:
// two identical fault-enabled runs agree on every counter.
func TestRunScenarioFaultsDeterministic(t *testing.T) {
	sc := Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 4,
		Faults: faults.Default().Scale(40),
	}
	a, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarioNetwork(t).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault scenario not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestRunScenarioDisabledFaultsAreNoOp proves the overlay machinery is
// invisible when no fault class is enabled: a scenario with an explicitly
// disabled fault config (and a retry policy, which must be ignored) matches
// the plain scenario result field for field.
func TestRunScenarioDisabledFaultsAreNoOp(t *testing.T) {
	base := Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 4,
	}
	withOff := base
	withOff.Faults = faults.Default().Scale(0) // every class disabled
	withOff.Retry.MaxAttempts = 7              // must be ignored without faults
	a, err := scenarioNetwork(t).RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarioNetwork(t).RunScenario(withOff)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("disabled faults changed the run:\n%+v\n%+v", a, b)
	}
	if a.FaultEvents != 0 || a.Retries != 0 || a.AbandonedTransfers != 0 {
		t.Errorf("fault counters nonzero without faults: %+v", a)
	}
}

func TestRunScenarioErrors(t *testing.T) {
	n := scenarioNetwork(t)
	if _, err := n.RunScenario(Scenario{}); err == nil {
		t.Error("invalid scenario should fail")
	}
	empty, err := NewNetwork(threeProviderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{DurationS: 10, SnapshotIntervalS: 5, PerUserRate: 1, MinBytes: 1, MaxBytes: 2}
	if _, err := empty.RunScenario(sc); err == nil {
		t.Error("scenario without users should fail")
	}
}

// TestScenarioEventAccounting pins RunScenario's event budget exactly, in
// both modes: every processed event is a fault transition, a tick, or (per
// flow) a transfer arrival or a retry — nothing else enters the engine.
// Both modes draw the same fault timeline from the same network.
func TestScenarioEventAccounting(t *testing.T) {
	const seed = 5
	perFlow := Scenario{
		DurationS: 1800, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1_000_000, MaxBytes: 100_000_000, Seed: seed,
	}
	fluidRun := perFlow.WithAggregateWorkload(50_000, nil)
	ticks := uint64(math.Ceil(perFlow.DurationS / perFlow.SnapshotIntervalS))
	for _, intensity := range []float64{0, 1, 4, 20} {
		pf, err := scenarioNetwork(t).RunScenario(perFlow.WithFaults(faults.Default(), intensity, seed))
		if err != nil {
			t.Fatalf("per-flow ×%g: %v", intensity, err)
		}
		fl, err := scenarioNetwork(t).RunScenario(fluidRun.WithFaults(faults.Default(), intensity, seed))
		if err != nil {
			t.Fatalf("fluid ×%g: %v", intensity, err)
		}
		want := uint64(pf.FaultEvents) + ticks + uint64(pf.TransfersAttempted+pf.Retries)
		if pf.EventsProcessed != want {
			t.Errorf("per-flow ×%g: %d events, want %d faults + %d ticks + %d attempts + %d retries = %d",
				intensity, pf.EventsProcessed, pf.FaultEvents, ticks, pf.TransfersAttempted, pf.Retries, want)
		}
		if want := uint64(fl.FaultEvents) + ticks; fl.EventsProcessed != want {
			t.Errorf("fluid ×%g: %d events, want %d faults + %d ticks = %d",
				intensity, fl.EventsProcessed, fl.FaultEvents, ticks, want)
		}
		if pf.FaultEvents != fl.FaultEvents {
			t.Errorf("×%g: per-flow saw %d fault transitions, fluid %d", intensity, pf.FaultEvents, fl.FaultEvents)
		}
		if (intensity == 0) != (pf.FaultEvents == 0) {
			t.Errorf("×%g: %d fault transitions", intensity, pf.FaultEvents)
		}
		t.Logf("×%g: per-flow %d events, fluid %d, %d fault transitions",
			intensity, pf.EventsProcessed, fl.EventsProcessed, pf.FaultEvents)
	}
}

// TestScenarioEventBudget checks that both modes stop on a small MaxEvents
// budget with an error wrapping ErrEventBudget.
func TestScenarioEventBudget(t *testing.T) {
	perFlow := Scenario{
		DurationS: 1800, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1_000_000, MaxBytes: 100_000_000, Seed: 9,
	}.WithFaults(faults.Default(), 4, 9).WithEventBudget(10)
	for name, sc := range map[string]Scenario{
		"per-flow": perFlow,
		"fluid":    perFlow.WithAggregateWorkload(50_000, nil),
	} {
		res, err := scenarioNetwork(t).RunScenario(sc)
		if !errors.Is(err, ErrEventBudget) {
			t.Errorf("%s: err = %v, want ErrEventBudget", name, err)
		}
		if res != nil {
			t.Errorf("%s: exhausted run returned a result", name)
		}
	}
}

// TestScenarioExactBudget checks that a budget of exactly the events a run
// needs is not exhausted: rerunning with MaxEvents equal to an unbudgeted
// run's EventsProcessed must succeed with an identical result.
func TestScenarioExactBudget(t *testing.T) {
	perFlow := Scenario{
		DurationS: 1800, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1_000_000, MaxBytes: 100_000_000, Seed: 9,
	}.WithFaults(faults.Default(), 4, 9)
	for name, sc := range map[string]Scenario{
		"per-flow": perFlow,
		"fluid":    perFlow.WithAggregateWorkload(50_000, nil),
	} {
		want, err := scenarioNetwork(t).RunScenario(sc)
		if err != nil {
			t.Fatalf("%s: unbudgeted run: %v", name, err)
		}
		got, err := scenarioNetwork(t).RunScenario(sc.WithEventBudget(want.EventsProcessed))
		if err != nil {
			t.Fatalf("%s: budget of exactly %d events: %v", name, want.EventsProcessed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: budgeted result %+v, want %+v", name, got, want)
		}
	}
}

// TestScenarioRejectsBadRetry pins that a faulted scenario with a NaN,
// infinite or negative backoff is refused up front: a NaN delay would
// otherwise slip past the horizon check and schedule retries at time NaN.
func TestScenarioRejectsBadRetry(t *testing.T) {
	base := Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 4,
	}
	faulted := base.WithFaults(faults.Default(), 40, 4)
	for _, r := range []routing.Backoff{
		{BaseS: math.NaN(), MaxAttempts: 3},
		{BaseS: math.Inf(1), MaxAttempts: 3},
		{BaseS: -1, MaxAttempts: 3},
		{BaseS: 1, MaxS: math.NaN(), MaxAttempts: 3},
		{BaseS: 1, MaxS: -1, MaxAttempts: 3},
		{BaseS: 1, MaxS: 8, MaxAttempts: -1},
	} {
		sc := faulted
		sc.Retry = r
		if sc.Validate() == nil {
			t.Errorf("retry %+v accepted", r)
		}
		if _, err := scenarioNetwork(t).RunScenario(sc); err == nil {
			t.Errorf("RunScenario with retry %+v returned no error", r)
		}
		// Without faults the retry policy is ignored, so it is not checked.
		sc = base
		sc.Retry = r
		if err := sc.Validate(); err != nil {
			t.Errorf("fault-free scenario with retry %+v rejected: %v", r, err)
		}
	}
}
