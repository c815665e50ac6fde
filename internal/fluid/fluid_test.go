package fluid

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

func TestClassMeanBytesMatchesSampling(t *testing.T) {
	// The analytic mean must agree with what sim.FlowSizeBytes actually
	// draws — it is the expectation the fluid path substitutes for it.
	rng := rand.New(rand.NewSource(3))
	for _, cl := range DefaultClasses() {
		var sum float64
		const n = 400000
		for i := 0; i < n; i++ {
			sum += float64(sim.FlowSizeBytes(cl.MinBytes, cl.MaxBytes, cl.ParetoAlpha, rng))
		}
		mc := sum / n
		want := cl.MeanBytes()
		if rel := math.Abs(mc-want) / want; rel > 0.05 {
			t.Errorf("class %s: analytic mean %.4g vs Monte Carlo %.4g (rel err %.3f)",
				cl.Name, want, mc, rel)
		}
	}
}

func TestClassQuantileBytes(t *testing.T) {
	cl := Class{Name: "x", UserShare: 1, RatePerUserS: 1, MinBytes: 1000, MaxBytes: 1e6, ParetoAlpha: 1.2}
	if got := cl.QuantileBytes(0); got != 1000 {
		t.Errorf("q0 = %v, want the lower bound", got)
	}
	if got := cl.QuantileBytes(1); got != 1e6 {
		t.Errorf("q1 = %v, want the upper bound", got)
	}
	prev := 0.0
	for q := 0.05; q < 1; q += 0.05 {
		v := cl.QuantileBytes(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// TestClassValidate: every class parameter must be positive and finite.
// NaN slips past a plain <= 0 check, and a NaN or +Inf share or rate would
// otherwise reach the Poisson draw, which turns it into MinInt64 arrivals.
func TestClassValidate(t *testing.T) {
	good := Class{Name: "x", UserShare: 1, RatePerUserS: 1, MinBytes: 1000, MaxBytes: 1e6, ParetoAlpha: 1.2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(c *Class)
	}{
		{"no name", func(c *Class) { c.Name = "" }},
		{"zero share", func(c *Class) { c.UserShare = 0 }},
		{"NaN share", func(c *Class) { c.UserShare = nan }},
		{"+Inf share", func(c *Class) { c.UserShare = inf }},
		{"negative rate", func(c *Class) { c.RatePerUserS = -1 }},
		{"NaN rate", func(c *Class) { c.RatePerUserS = nan }},
		{"+Inf rate", func(c *Class) { c.RatePerUserS = inf }},
		{"inverted sizes", func(c *Class) { c.MaxBytes = c.MinBytes - 1 }},
		{"zero shape", func(c *Class) { c.ParetoAlpha = 0 }},
		{"NaN shape", func(c *Class) { c.ParetoAlpha = nan }},
		{"+Inf shape", func(c *Class) { c.ParetoAlpha = inf }},
	}
	for _, tc := range cases {
		c := good
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, c)
		}
		if _, err := BuildClassMatrix(Config{Users: 1000, Classes: []Class{c}}); err == nil {
			t.Errorf("%s: BuildClassMatrix accepted the class", tc.name)
		}
	}
}

func TestBuildClassMatrix(t *testing.T) {
	cfg := Config{Users: 1_000_000, Seed: 5}
	m, err := BuildClassMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAggs := len(m.Cities) * len(m.Cities) * len(m.Classes)
	if len(m.Aggregates) != wantAggs {
		t.Fatalf("aggregates = %d, want %d", len(m.Aggregates), wantAggs)
	}
	// Effective users must conserve the configured population.
	var users float64
	seeds := make(map[int64]bool)
	for _, a := range m.Aggregates {
		users += a.Users
		seeds[a.Seed] = true
	}
	if math.Abs(users-float64(cfg.Users)) > 1e-6*float64(cfg.Users) {
		t.Errorf("effective users %.1f, want %d", users, cfg.Users)
	}
	if len(seeds) != wantAggs {
		t.Errorf("aggregate seeds collide: %d distinct of %d", len(seeds), wantAggs)
	}
	if m.OfferedBps() <= 0 {
		t.Error("offered load must be positive")
	}
	if _, err := BuildClassMatrix(Config{Users: 0}); err == nil {
		t.Error("zero users must be rejected")
	}
	if !cfg.Enabled() {
		t.Error("config with users must be enabled")
	}
	if (Config{}).Enabled() {
		t.Error("zero config must be disabled")
	}
}

// gridSnapshot builds a real +Grid Walker Delta snapshot with gateways at
// the most populous cities — the environment E18 runs in.
func gridSnapshot(tb testing.TB, nsats, ngws int, timeS float64) (*topo.Snapshot, []traffic.Gateway) {
	tb.Helper()
	w, err := orbit.SquareWalkerDelta(nsats, 550, 53)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := w.Build()
	if err != nil {
		tb.Fatal(err)
	}
	pairs, err := w.GridISLs(w.DefaultGrid())
	if err != nil {
		tb.Fatal(err)
	}
	tcfg := topo.DefaultConfig()
	tcfg.StaticISLs = pairs
	specs := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		specs[i] = topo.SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements, HasLaser: true}
	}
	var gws []traffic.Gateway
	cities := sim.WorldCities()
	for i := 0; i < len(cities) && len(gws) < ngws; i++ {
		gws = append(gws, traffic.Gateway{ID: "gw-" + cities[i].Name, Pos: cities[i].Pos})
	}
	grounds := make([]topo.GroundSpec, len(gws))
	for i, g := range gws {
		grounds[i] = topo.GroundSpec{ID: g.ID, Provider: "p", Pos: g.Pos}
	}
	return topo.Build(timeS, tcfg, specs, grounds, nil), gws
}

func TestEvolverDeliversOnGrid(t *testing.T) {
	cfg := Config{Users: 200_000, Seed: 7}
	m, err := BuildClassMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, gws := gridSnapshot(t, 100, 8, 0)
	ev, err := NewEvolver(m, cfg, gws)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		t0 := float64(epoch) * 30
		if err := ev.Advance(snap, t0, t0+30, epoch); err != nil {
			t.Fatal(err)
		}
	}
	r := ev.Result()
	if r.Epochs != 3 || r.HorizonS != 90 {
		t.Fatalf("epochs=%d horizon=%v, want 3/90", r.Epochs, r.HorizonS)
	}
	if r.TransfersAttempted == 0 {
		t.Fatal("no transfers attempted — arrival realisation broken")
	}
	if r.TransfersDelivered == 0 || r.BytesDelivered == 0 {
		t.Fatalf("nothing delivered on a lit grid: %+v", r)
	}
	if r.TransfersDelivered > r.TransfersAttempted {
		t.Fatalf("delivered %d > attempted %d", r.TransfersDelivered, r.TransfersAttempted)
	}
	if r.CarriedBps() <= 0 {
		t.Error("carried capacity must be positive")
	}
	if r.Latency.Count() == 0 {
		t.Error("no latency mass recorded")
	}
	if p50 := r.Latency.Quantile(0.5); p50 <= 0 || p50 > 35 {
		t.Errorf("p50 latency %v s implausible", p50)
	}
	var perClassDelivered int64
	for _, c := range r.PerClass {
		perClassDelivered += c.TransfersDelivered
	}
	if perClassDelivered != r.TransfersDelivered {
		t.Errorf("per-class delivered %d ≠ total %d", perClassDelivered, r.TransfersDelivered)
	}
}

func TestEvolverDeterministicReplay(t *testing.T) {
	cfg := Config{Users: 150_000, Seed: 11}
	snap, gws := gridSnapshot(t, 64, 6, 0)
	run := func() *Result {
		m, err := BuildClassMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvolver(m, cfg, gws)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 4; epoch++ {
			t0 := float64(epoch) * 15
			if err := ev.Advance(snap, t0, t0+15, epoch); err != nil {
				t.Fatal(err)
			}
		}
		return ev.Result()
	}
	a, b := run(), run()
	if a.TransfersAttempted != b.TransfersAttempted ||
		a.TransfersDelivered != b.TransfersDelivered ||
		a.BytesDelivered != b.BytesDelivered ||
		a.Retries != b.Retries || a.Abandoned != b.Abandoned ||
		a.LocalTransfers != b.LocalTransfers {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
	for _, q := range []float64{0.1, 0.5, 0.95, 0.99} {
		if a.Latency.Quantile(q) != b.Latency.Quantile(q) {
			t.Fatalf("latency q%.2f diverged: %v vs %v", q, a.Latency.Quantile(q), b.Latency.Quantile(q))
		}
	}
	if a.CarriedBps() != b.CarriedBps() {
		t.Fatalf("carried diverged: %v vs %v", a.CarriedBps(), b.CarriedBps())
	}
}

// TestEvolverRejectsNonFiniteSpan: an epoch span that is NaN or infinite
// fails before Advance touches any state. A NaN span used to realise the
// epoch's arrivals into the pools before the allocator rejected it, and an
// infinite one was accepted with HorizonS = +Inf.
func TestEvolverRejectsNonFiniteSpan(t *testing.T) {
	cfg := Config{Users: 100_000, Seed: 19}
	snap, gws := gridSnapshot(t, 64, 6, 0)
	newEvolver := func() *Evolver {
		m, err := BuildClassMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvolver(m, cfg, gws)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Advance(snap, 0, 30, 0); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	bad, good := newEvolver(), newEvolver()
	nan, inf := math.NaN(), math.Inf(1)
	for _, span := range [][2]float64{{30, nan}, {nan, 60}, {30, inf}, {-inf, 60}, {inf, inf}} {
		if err := bad.Advance(snap, span[0], span[1], 1); err == nil {
			t.Errorf("epoch [%v, %v) accepted", span[0], span[1])
		}
		if !reflect.DeepEqual(bad.Result(), good.Result()) {
			t.Fatalf("epoch [%v, %v) failed after changing the result:\n%+v\n%+v", span[0], span[1], bad.Result(), good.Result())
		}
	}
	// The next valid epoch must see the same pools and backlog as an
	// evolver that never saw the bad spans.
	for _, ev := range []*Evolver{bad, good} {
		if err := ev.Advance(snap, 30, 60, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(bad.Result(), good.Result()) {
		t.Fatalf("rejected epochs changed the next one:\n%+v\n%+v", bad.Result(), good.Result())
	}
}

// darkSnapshot has the gateway nodes but no links at all: no gateway is
// lit, the constellation is effectively dark.
func darkSnapshot(tb testing.TB, gws []traffic.Gateway) *topo.Snapshot {
	tb.Helper()
	nodes := make([]topo.Node, len(gws))
	for i, g := range gws {
		nodes[i] = topo.Node{ID: g.ID, Kind: topo.KindGroundStation}
	}
	s, err := topo.NewSnapshot(0, nodes, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestEvolverDarkEpochsBacklogAndAbandon(t *testing.T) {
	cfg := Config{Users: 100_000, Seed: 13, MaxRetryEpochs: 2}
	m, err := BuildClassMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, gws := gridSnapshot(t, 16, 5, 0)
	dark := darkSnapshot(t, gws)
	ev, err := NewEvolver(m, cfg, gws)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Advance(dark, 0, 30, 0); err != nil {
		t.Fatal(err)
	}
	r := ev.Result()
	if r.DarkEpochs != 1 {
		t.Fatalf("dark epochs = %d, want 1", r.DarkEpochs)
	}
	if r.TransfersDelivered != 0 {
		t.Fatalf("delivered %d transfers with no gateway lit", r.TransfersDelivered)
	}
	if r.PendingTransfers == 0 || r.Retries == 0 {
		t.Fatalf("dark epoch must backlog arrivals: pending=%d retries=%d", r.PendingTransfers, r.Retries)
	}
	// Stay dark past the retry budget: the backlog must drain into
	// Abandoned rather than grow without bound.
	for epoch := 1; epoch <= 4; epoch++ {
		if err := ev.Advance(dark, float64(epoch)*30, float64(epoch+1)*30, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if r.Abandoned == 0 {
		t.Fatal("retry budget exhausted but nothing abandoned")
	}
}

func TestEvolverRecoversBacklogAfterDarkEpoch(t *testing.T) {
	cfg := Config{Users: 100_000, Seed: 17, MaxRetryEpochs: 5}
	m, err := BuildClassMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, gws := gridSnapshot(t, 100, 8, 0)
	dark := darkSnapshot(t, gws)
	ev, err := NewEvolver(m, cfg, gws)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Advance(dark, 0, 30, 0); err != nil {
		t.Fatal(err)
	}
	pending := ev.Result().PendingTransfers
	if pending == 0 {
		t.Fatal("dark epoch left no backlog")
	}
	if err := ev.Advance(snap, 30, 60, 1); err != nil {
		t.Fatal(err)
	}
	r := ev.Result()
	if r.Recovered == 0 {
		t.Fatalf("lit epoch after a dark one recovered nothing (pending was %d)", pending)
	}
	if r.TransfersDelivered == 0 {
		t.Fatal("nothing delivered after recovery epoch")
	}
}

// TestEvolverInterruptionCounting: a fault overlay that relights the
// gateways remaps every city, so backlog carried across the transition is
// charged to Interrupted — but only while SetFaultsActive(true) holds.
func TestEvolverInterruptionCounting(t *testing.T) {
	run := func(active bool) *Result {
		cfg := Config{Users: 100_000, Seed: 13, MaxRetryEpochs: 5}
		m, err := BuildClassMatrix(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, gws := gridSnapshot(t, 100, 8, 0)
		dark := darkSnapshot(t, gws)
		ev, err := NewEvolver(m, cfg, gws)
		if err != nil {
			t.Fatal(err)
		}
		ev.SetFaultsActive(active)
		if err := ev.Advance(dark, 0, 30, 0); err != nil {
			t.Fatal(err)
		}
		if ev.Result().PendingTransfers == 0 {
			t.Fatal("dark epoch left no backlog")
		}
		if err := ev.Advance(snap, 30, 60, 1); err != nil {
			t.Fatal(err)
		}
		return ev.Result()
	}

	withFaults := run(true)
	if withFaults.Interrupted == 0 {
		t.Fatal("gateway remap under active faults charged no interruptions")
	}
	withoutFaults := run(false)
	if withoutFaults.Interrupted != 0 {
		t.Fatalf("interruptions %d charged while faults inactive", withoutFaults.Interrupted)
	}
	// The gate must be pure accounting: every delivery counter matches.
	if withFaults.TransfersDelivered != withoutFaults.TransfersDelivered ||
		withFaults.TransfersAttempted != withoutFaults.TransfersAttempted ||
		withFaults.Abandoned != withoutFaults.Abandoned {
		t.Errorf("fault-active accounting changed delivery counters: %+v vs %+v", withFaults, withoutFaults)
	}
}

func TestPoissonMeanAndDeterminism(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 40, 200, 5000} {
		rng := rand.New(rand.NewSource(1))
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / n
		// Standard error of the mean is sqrt(mean/n); allow 5 sigma.
		tol := 5 * math.Sqrt(mean/n)
		if math.Abs(got-mean) > tol {
			t.Errorf("mean %v: sample mean %v beyond ±%v", mean, got, tol)
		}
		a, b := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
		for i := 0; i < 100; i++ {
			if poisson(a, mean) != poisson(b, mean) {
				t.Fatalf("mean %v: identical rng states gave different draws", mean)
			}
		}
	}
	if poisson(rand.New(rand.NewSource(1)), 0) != 0 {
		t.Error("zero mean must give zero arrivals")
	}
}
