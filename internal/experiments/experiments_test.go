package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/sim"
)

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestRenderSeries(t *testing.T) {
	s := &sim.Series{Name: "test"}
	s.Append(0, 0, 0)
	s.Append(10, 100, 0)
	var buf bytes.Buffer
	if err := RenderSeries(&buf, "title", "x", "y", []*sim.Series{s}, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "*") {
		t.Errorf("render missing content:\n%s", out)
	}
	// Empty series renders a placeholder, not a panic.
	buf.Reset()
	if err := RenderSeries(&buf, "empty", "x", "y", nil, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty render should say no data")
	}
}

func TestFig2a(t *testing.T) {
	r, err := Fig2a(4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SubSatPoints) != 66 {
		t.Fatalf("sub-satellite points = %d", len(r.SubSatPoints))
	}
	// The reference constellation achieves (near-)global coverage — the
	// figure's caption.
	if r.CoverageExact < 0.97 {
		t.Errorf("coverage = %v, want ≥0.97", r.CoverageExact)
	}
	// Intra-plane ISLs are sustained (constant distance) and short enough
	// for the standard S-band terminal.
	if r.IntraPlaneKm <= 0 || r.IntraPlaneKm > 5400 {
		t.Errorf("intra-plane distance = %v km", r.IntraPlaneKm)
	}
	if r.ISLCount == 0 {
		t.Error("no ISLs in reference constellation")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "@") {
		t.Error("render missing satellites")
	}
	buf.Reset()
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 67 {
		t.Errorf("csv lines = %d, want 67", lines)
	}
}

func TestFig2bShapeMatchesPaper(t *testing.T) {
	cfg := DefaultFig2b()
	// Keep the test fast; the bench runs the full sweep.
	cfg.MaxSats = 80
	cfg.Step = 8
	cfg.Trials = 12
	r, err := Fig2b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Latency.Points) < 5 {
		t.Fatalf("too few latency points: %d", len(r.Latency.Points))
	}
	// Shape check 1: latency at small N far exceeds latency at large N
	// (the paper's steep drop before ~25 satellites).
	first := r.Latency.Points[0]
	last := r.Latency.Points[len(r.Latency.Points)-1]
	if first.Y <= last.Y {
		t.Errorf("latency did not fall: %v ms at N=%v vs %v ms at N=%v",
			first.Y, first.X, last.Y, last.X)
	}
	// Shape check 2: the flattened latency is tens of milliseconds, not
	// seconds and not microseconds (paper: ~30 ms).
	if last.Y < 5 || last.Y > 120 {
		t.Errorf("flattened latency %v ms outside plausible band", last.Y)
	}
	// Shape check 3: path fraction grows with N, tiny at N=1.
	pf := r.PathFraction.Points
	if pf[0].Y > 0.3 {
		t.Errorf("single satellite path fraction %v; should be rare", pf[0].Y)
	}
	if pf[len(pf)-1].Y < 0.8 {
		t.Errorf("large-N path fraction %v; should be common", pf[len(pf)-1].Y)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	// Config validation.
	if _, err := Fig2b(Fig2bConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

// fullCoverageAt returns the smallest swept N whose mean worst-case
// coverage reaches the threshold, or 0 if never reached.
func fullCoverageAt(r *Fig2cResult, threshold float64) int {
	for _, p := range r.WorstCase.Points {
		if p.Y >= threshold {
			return int(p.X)
		}
	}
	return 0
}

func TestFig2cShapeMatchesPaper(t *testing.T) {
	cfg := DefaultFig2c()
	cfg.MaxSats = 80
	cfg.Step = 8
	cfg.Trials = 10
	cfg.GridSize = 2000
	r, err := Fig2c(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Coverage grows monotonically (within noise) and the worst-case rule
	// reaches total coverage in the tens of satellites (paper: ~50).
	n := fullCoverageAt(r, 0.99)
	if n == 0 {
		t.Fatal("worst-case coverage never reached 99%")
	}
	if n < 25 || n > 80 {
		t.Errorf("full coverage at %d satellites; paper reports ~50", n)
	}
	// The worst-case rule is more conservative than the exact union at
	// moderate N (before both saturate).
	for i, p := range r.WorstCase.Points {
		e := r.Exact.Points[i]
		if p.X < 30 && p.Y > e.Y+0.1 {
			t.Errorf("worst case %v far above exact %v at N=%v", p.Y, e.Y, p.X)
		}
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig2c(Fig2cConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestFederationShape(t *testing.T) {
	cfg := DefaultFederation()
	cfg.MaxPerFleet = 12
	cfg.Step = 4
	cfg.GridSize = 2000
	r, err := Federation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Union coverage strictly dominates the best solo at every point.
	for i, p := range r.Union.Points {
		if p.Y <= r.BestSolo.Points[i].Y {
			t.Errorf("union %v not above solo %v at m=%v", p.Y, r.BestSolo.Points[i].Y, p.X)
		}
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Federation(FederationConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestHotspotScenario(t *testing.T) {
	cfg := DefaultFederation()
	cfg.MaxPerFleet = 8
	solo, fed, err := HotspotScenario(cfg, geo.LatLon{Lat: 7.1, Lon: 125.6}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fed < solo {
		t.Errorf("federated availability %v below solo %v", fed, solo)
	}
	if fed <= 0 || fed > 1 || solo < 0 || solo > 1 {
		t.Errorf("availability out of range: solo=%v fed=%v", solo, fed)
	}
	if _, _, err := HotspotScenario(cfg, geo.LatLon{}, 0); err == nil {
		t.Error("zero samples should fail")
	}
}

func TestHandoverExperimentShape(t *testing.T) {
	cfg := DefaultHandover()
	cfg.HorizonS = 1800
	r, err := HandoverExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpeedupFactor() < 10 {
		t.Errorf("predictive speedup %vx; expected a large factor", r.SpeedupFactor())
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := HandoverExperiment(HandoverConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestMACExperimentShape(t *testing.T) {
	cfg := DefaultMAC()
	cfg.MaxStations = 16
	cfg.Step = 7
	r, err := MACExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// CSMA delay exceeds TDMA delay at the top of the sweep (the cited
	// overhead claim).
	lastC := r.CSMADelay.Points[len(r.CSMADelay.Points)-1]
	lastT := r.TDMADelay.Points[len(r.TDMADelay.Points)-1]
	if lastC.Y <= lastT.Y {
		t.Errorf("CSMA delay %v ≤ TDMA %v at high contention", lastC.Y, lastT.Y)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := MACExperiment(MACConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestEconExperiment(t *testing.T) {
	cfg := DefaultEcon()
	cfg.Transfers = 60
	r, err := EconExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Transfers == 0 {
		t.Fatal("nothing delivered")
	}
	if r.Discrepancies != 0 {
		t.Errorf("honest federation has %d ledger discrepancies", r.Discrepancies)
	}
	if len(r.Invoices) == 0 {
		t.Error("no invoices despite cross-provider traffic")
	}
	// Balances sum to ~0 (every invoice moves money between members).
	var sum float64
	for _, b := range r.Balances {
		sum += b
	}
	if sum > 1e-6 || sum < -1e-6 {
		t.Errorf("balances sum to %v", sum)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := EconExperiment(EconConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestLinksExperiment(t *testing.T) {
	r, err := LinksExperiment(DefaultLinkDistances())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 { // 3 techs × 5 distances
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// At 2000 km: laser capacity ≫ s-band ≫ uhf, laser energy/bit lowest.
	var uhf, sband, laser LinkRow
	for _, row := range r.Rows {
		if row.DistanceKm != 2000 {
			continue
		}
		switch row.Tech {
		case "uhf":
			uhf = row
		case "s-band":
			sband = row
		case "laser":
			laser = row
		}
	}
	if !(laser.CapacityBps > sband.CapacityBps && sband.CapacityBps > uhf.CapacityBps) {
		t.Errorf("capacity ordering broken: %v %v %v",
			uhf.CapacityBps, sband.CapacityBps, laser.CapacityBps)
	}
	if laser.EnergyPerBitJ >= uhf.EnergyPerBitJ {
		t.Errorf("laser J/bit %v not below uhf %v", laser.EnergyPerBitJ, uhf.EnergyPerBitJ)
	}
	if laser.CostUSD <= sband.CostUSD {
		t.Error("laser must cost more")
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LinksExperiment(nil); err == nil {
		t.Error("no distances should fail")
	}
}

func TestCriticalMassShape(t *testing.T) {
	cfg := DefaultCriticalMass()
	cfg.ProviderCounts = []int{1, 3}
	cfg.MaxSats = 40
	cfg.Step = 12
	cfg.Trials = 4
	r, err := CriticalMass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 2 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		first := c.Points[0].Y
		last := c.Points[len(c.Points)-1].Y
		if last <= first {
			t.Errorf("%s: connectivity did not grow (%v → %v)", c.Name, first, last)
		}
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := CriticalMass(CriticalMassConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestIncentivesExperiment(t *testing.T) {
	r, err := IncentivesExperiment(DefaultIncentives())
	if err != nil {
		t.Fatal(err)
	}
	if r.FederatedAvail < r.SoloAvail {
		t.Errorf("federation reduced availability: %v → %v", r.SoloAvail, r.FederatedAvail)
	}
	if r.FederatedAvail <= 0 || r.FederatedAvail > 1 {
		t.Errorf("availability out of range: %v", r.FederatedAvail)
	}
	// A 50k-user incumbent gaining availability should see a positive
	// membership case (the coverage dividend dominates settlement noise).
	if r.Report.NetBenefitUSD <= 0 {
		t.Errorf("expected positive membership case: %+v", r.Report)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "JOIN") {
		t.Error("render should include the verdict")
	}
	if _, err := IncentivesExperiment(IncentivesConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestRoutingAblation(t *testing.T) {
	r, err := RoutingAblation(DefaultRoutingAblation())
	if err != nil {
		t.Fatal(err)
	}
	// The load is sized to overload the proactive regime.
	if r.ProactiveOverloadedEdges == 0 {
		t.Error("proactive regime should overload some edges at this load")
	}
	// On-demand never oversubscribes a link.
	if r.OnDemandMaxUtilization > 1+1e-9 {
		t.Errorf("on-demand max utilization %v exceeds 1", r.OnDemandMaxUtilization)
	}
	if r.OnDemandAdmitted == 0 {
		t.Error("on-demand admitted nothing")
	}
	// The price of congestion awareness: equal or longer paths.
	if r.OnDemandMeanDelayMs+1e-9 < r.ProactiveMeanDelayMs {
		t.Errorf("on-demand delay %v below proactive %v; detours expected",
			r.OnDemandMeanDelayMs, r.ProactiveMeanDelayMs)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RoutingAblation(RoutingAblationConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestDTNExperiment(t *testing.T) {
	cfg := DefaultDTN()
	cfg.FleetSizes = []int{3, 12}
	cfg.Trials = 4
	cfg.HorizonS = 4 * 3600
	cfg.IntervalS = 180
	r, err := DTNExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward deliverability dominates instant connectivity at
	// every fleet size (a superset by construction).
	sf := map[float64]float64{}
	for _, p := range r.StoreForward.Points {
		sf[p.X] = p.Y
	}
	for _, p := range r.Synchronous.Points {
		if sf[p.X] < p.Y {
			t.Errorf("fleet %v: storeforward %v below instant %v", p.X, sf[p.X], p.Y)
		}
	}
	// A tiny fleet should have little instant connectivity but real
	// store-and-forward service — the experiment's point.
	if r.Synchronous.Points[0].Y > 0.5 {
		t.Errorf("3 satellites instantly connected %v of trials; too benign", r.Synchronous.Points[0].Y)
	}
	if sf[3] == 0 {
		t.Log("note: no s&f delivery at fleet 3 within the shortened test horizon")
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DTNExperiment(DTNConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestResilienceShape(t *testing.T) {
	cfg := DefaultResilience()
	cfg.MaxFailures = 32
	cfg.Step = 16
	cfg.Trials = 3
	r, err := Resilience(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Intact constellation connects everything; connectivity degrades
	// monotonically-ish with failures.
	first := r.Connectivity.Points[0]
	last := r.Connectivity.Points[len(r.Connectivity.Points)-1]
	if first.X != 0 || first.Y < 0.99 {
		t.Errorf("intact connectivity = %+v, want 1.0 at k=0", first)
	}
	if last.Y > first.Y {
		t.Errorf("connectivity rose with failures: %v → %v", first.Y, last.Y)
	}
	// Redundancy: multiple disjoint paths exist when intact.
	if len(r.DisjointPaths.Points) == 0 || r.DisjointPaths.Points[0].Y < 2 {
		t.Errorf("intact mesh should offer ≥2 disjoint paths: %+v", r.DisjointPaths.Points)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Resilience(ResilienceConfig{Step: 0}); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := Resilience(ResilienceConfig{MaxFailures: 100, Step: 1, Trials: 1}); err == nil {
		t.Error("failing the whole fleet should be rejected")
	}
	// Step beyond the sweep range used to silently yield a single k=0 point.
	if _, err := Resilience(ResilienceConfig{MaxFailures: 8, Step: 9, Trials: 1}); err == nil {
		t.Error("step > max failures should be rejected, not degrade to one point")
	}
}

func TestAvailabilitySweep(t *testing.T) {
	cfg := DefaultAvailability()
	cfg.Intensities = []float64{0, 2}
	cfg.Trials = 2
	cfg.HorizonS = 1800
	r, err := Availability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want one per intensity", len(r.Rows))
	}
	// The control point: no faults, availability exactly 1 for every flow.
	zero := r.Rows[0]
	if zero.Availability != 1 || zero.AvailabilityMin != 1 ||
		zero.Interruptions != 0 || zero.FaultEvents != 0 {
		t.Errorf("intensity 0 must be a perfect control point: %+v", zero)
	}
	// Faults cost availability.
	faulty := r.Rows[1]
	if faulty.FaultEvents == 0 {
		t.Fatal("2× fault rates over 30 min generated no events")
	}
	if faulty.Availability >= 1 || faulty.Availability <= 0 {
		t.Errorf("faulty availability = %v, want in (0,1)", faulty.Availability)
	}
	if faulty.Availability > zero.Availability {
		t.Error("availability rose with fault intensity")
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")); got != 3 {
		t.Errorf("CSV lines = %d, want header + 2 rows", got)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Availability(AvailabilityConfig{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestSpectrumExperiment(t *testing.T) {
	r, err := SpectrumExperiment(DefaultSpectrum())
	if err != nil {
		t.Fatal(err)
	}
	// Channel demand grows (weakly) with shared stations.
	first := r.ChannelsUsed.Points[0]
	last := r.ChannelsUsed.Points[len(r.ChannelsUsed.Points)-1]
	if last.Y < first.Y {
		t.Errorf("channel demand fell with more stations: %v → %v", first.Y, last.Y)
	}
	if first.Y < 1 {
		t.Errorf("one station still needs ≥1 channel: %v", first.Y)
	}
	// Conflicts grow with stations.
	if r.Conflicts.Points[len(r.Conflicts.Points)-1].Y < r.Conflicts.Points[0].Y {
		t.Error("conflicts fell with more stations")
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := SpectrumExperiment(SpectrumConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	if _, err := SpectrumExperiment(SpectrumConfig{StationCounts: []int{999}, ChannelBudget: 1}); err == nil {
		t.Error("too many stations should fail")
	}
}
