package openspace

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

func TestQuickFederationEndToEnd(t *testing.T) {
	net, err := QuickFederation(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Providers(); len(got) != 3 {
		t.Fatalf("providers = %v", got)
	}
	if _, err := net.AddUser("alice", "prov-0", LatLon{Lat: -1.29, Lon: 36.82}); err != nil {
		t.Fatal(err)
	}
	if err := net.BuildTopology(0, 300, 60); err != nil {
		t.Fatal(err)
	}
	if err := net.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	d, err := net.Send("alice", "gs-0", 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.LatencyS <= 0 || d.LatencyS > 1 {
		t.Errorf("latency %v s implausible", d.LatencyS)
	}
	if _, err := QuickFederation(0, 1); err == nil {
		t.Error("zero providers should fail")
	}
}

func TestPublicConstellationAPI(t *testing.T) {
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 66 {
		t.Errorf("Iridium size %d", c.Len())
	}
	cbo, err := CBOReference().Build()
	if err != nil {
		t.Fatal(err)
	}
	if cbo.Len() != 72 {
		t.Errorf("CBO size %d", cbo.Len())
	}
}

func TestPublicExperimentAPI(t *testing.T) {
	r, err := Fig2a(2000)
	if err != nil {
		t.Fatal(err)
	}
	if r.CoverageExact < 0.9 {
		t.Errorf("coverage %v", r.CoverageExact)
	}
	cfg := DefaultFig2b()
	cfg.MaxSats = 20
	cfg.Step = 10
	cfg.Trials = 4
	if _, err := Fig2b(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEconomicsAPI(t *testing.T) {
	capex := DefaultCapex()
	cost, err := capex.FleetUSD(FleetPlan{Satellites: 11, LaserFraction: 0.3, GroundStations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Errorf("fleet cost %v", cost)
	}
	var l *Ledger
	_ = l // Ledger is re-exported; real instances come from networks
}

func TestPublicScenarioAPI(t *testing.T) {
	net, err := QuickFederation(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddUser("u", "prov-0", LatLon{Lat: 40.44, Lon: -79.99}); err != nil {
		t.Fatal(err)
	}
	res, err := net.RunScenario(Scenario{
		DurationS: 300, SnapshotIntervalS: 60,
		PerUserRate: 0.05, MinBytes: 1000, MaxBytes: 1_000_000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TransfersDelivered == 0 {
		t.Error("scenario delivered nothing")
	}
}

func TestPublicSecurityAPI(t *testing.T) {
	s, err := NewSecureSession([]byte("secret"), "dir")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSecureSession([]byte("secret"), "dir")
	if err != nil {
		t.Fatal(err)
	}
	env := s.Seal([]byte("hello"), nil)
	if msg, err := r.Open(env, nil); err != nil || string(msg) != "hello" {
		t.Errorf("round trip: %q, %v", msg, err)
	}
	reg, err := NewQuarantineRegistry(1)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Quarantined("anyone") {
		t.Error("fresh registry should quarantine no one")
	}
}

func TestPublicRegulationAPI(t *testing.T) {
	atlas := DefaultAtlas()
	if got := atlas.RegionOf(LatLon{Lat: 51.5, Lon: -0.1}); got != "europe" {
		t.Errorf("london region = %q", got)
	}
	policy := RegulatoryPolicy{Residency: map[string][]string{"europe": {"europe"}}}
	if policy.MayDownlink("europe", "asia") {
		t.Error("residency rule ignored")
	}
}

func TestPublicIncentiveAPI(t *testing.T) {
	net, err := QuickFederation(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Incentive(net.Provider("prov-0").Ledger, RateCard{Default: 0.2},
		"prov-0", 0.8, 0.9, CoverageEconomics{Users: 100, RevenuePerUserHour: 0.01, Hours: 24})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoverageDividendUSD <= 0 {
		t.Errorf("dividend = %v", rep.CoverageDividendUSD)
	}
}

func TestPublicRoutingAPI(t *testing.T) {
	c, err := Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = SatSpec{ID: s.ID, Provider: "p", Elements: s.Elements}
	}
	users := []UserSpec{{ID: "u", Provider: "p", Pos: LatLon{Lat: -1.29, Lon: 36.82}}}
	grounds := []GroundSpec{{ID: "g", Provider: "p", Pos: LatLon{Lat: 51.51, Lon: -0.13}}}
	snap := BuildSnapshot(0, DefaultTopology(), sats, grounds, users)
	if _, err := ShortestPath(snap, "u", "g", LatencyCost(0)); err != nil {
		t.Fatalf("shortest path: %v", err)
	}
	if _, err := ShortestPath(snap, "u", "g", ClassBulk.Policy().Cost()); err != nil {
		t.Fatalf("bulk class path: %v", err)
	}
	te, err := BuildTimeExpanded(0, 120, 60, DefaultTopology(), sats, grounds, users)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EarliestArrival(te, "u", "g", 0, 0); err != nil {
		t.Fatalf("earliest arrival: %v", err)
	}
	if _, err := DisjointPaths(snap, "u", "g", HopCost(), 2); err != nil {
		t.Fatalf("disjoint: %v", err)
	}
	reg, err := NewQuarantineRegistry(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShortestPath(snap, "u", "g", ExcludeQuarantined(LatencyCost(0), reg)); err != nil {
		t.Fatalf("path with no one quarantined: %v", err)
	}
	if ClassInteractive.String() != "interactive" {
		t.Error("class alias broken")
	}
	if StandardSBand().Band != BandS || ConLCT80().CostUSD != 500_000 {
		t.Error("phy aliases broken")
	}
	_ = StandardUHF()
}

// TestExamplesCheckOutput requires an // Output: comment on every Example in
// the root test files. go test compiles an Example without one but never
// runs it, so its printout would go unchecked.
func TestExamplesCheckOutput(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	examples := doc.Examples(files...)
	if len(examples) == 0 {
		t.Fatal("no Example functions in the root test files")
	}
	for _, ex := range examples {
		if ex.Output == "" && !ex.EmptyOutput {
			t.Errorf("Example%s has no // Output: comment, so go test never runs it", ex.Name)
		}
	}
}
