package handover

import (
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// iridiumSats returns the Iridium constellation as predictor inputs split
// round-robin across providers.
func iridiumSats(t *testing.T, providers int) []Sat {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]Sat, c.Len())
	for i, s := range c.Satellites {
		sats[i] = Sat{
			ID:       s.ID,
			Provider: string(rune('A' + i%providers)),
			Elements: s.Elements,
		}
	}
	return sats
}

var testUser = geo.LatLon{Lat: 40.44, Lon: -79.99} // Pittsburgh

func TestNewPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(nil, testUser, 10); err == nil {
		t.Error("no satellites should fail")
	}
	if _, err := NewPredictor(iridiumSats(t, 1), geo.LatLon{Lat: 99}, 10); err == nil {
		t.Error("invalid user should fail")
	}
}

func TestBestIsVisibleAndClosest(t *testing.T) {
	p, err := NewPredictor(iridiumSats(t, 1), testUser, 10)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := p.Best(0)
	if !ok {
		t.Fatal("full Iridium must cover Pittsburgh")
	}
	if !best.Elements.Visible(testUser, 0, 10) {
		t.Error("best satellite not visible")
	}
	// No other visible satellite is closer.
	userPos := testUser.Vec3(0)
	bestRange := best.Elements.PositionECEF(0).DistanceKm(userPos)
	for _, s := range iridiumSats(t, 1) {
		if !s.Elements.Visible(testUser, 0, 10) {
			continue
		}
		if d := s.Elements.PositionECEF(0).DistanceKm(userPos); d < bestRange-1e-9 {
			t.Errorf("%s at %v km closer than best %v km", s.ID, d, bestRange)
		}
	}
}

func TestVisibleUntil(t *testing.T) {
	p, err := NewPredictor(iridiumSats(t, 1), testUser, 10)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := p.Best(0)
	set := p.VisibleUntil(best.ID, 0, 3600)
	if set <= 0 || set >= 3600 {
		t.Fatalf("set time %v outside (0, 3600)", set)
	}
	// Visibility holds just before and fails just after.
	if !best.Elements.Visible(testUser, set-0.5, 10) {
		t.Error("not visible just before set")
	}
	if best.Elements.Visible(testUser, set+0.5, 10) {
		t.Error("still visible just after set")
	}
	// Not-visible satellite: returns t itself.
	for _, s := range iridiumSats(t, 1) {
		if !s.Elements.Visible(testUser, 0, 10) {
			if got := p.VisibleUntil(s.ID, 0, 3600); got != 0 {
				t.Errorf("invisible satellite VisibleUntil = %v, want 0", got)
			}
			break
		}
	}
	// Unknown satellite.
	if got := p.VisibleUntil("ghost", 5, 3600); got != 5 {
		t.Errorf("unknown satellite VisibleUntil = %v, want 5", got)
	}
}

func TestPickSuccessor(t *testing.T) {
	p, err := NewPredictor(iridiumSats(t, 1), testUser, 10)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := p.Best(0)
	set := p.VisibleUntil(best.ID, 0, 3600)
	succ, ok := p.PickSuccessor(best.ID, set, 3600)
	if !ok {
		t.Fatal("full Iridium must offer a successor")
	}
	if succ.ID == best.ID {
		t.Error("successor must differ from serving")
	}
	if !succ.Elements.Visible(testUser, set, 10) {
		t.Error("successor not visible at set time")
	}
}

func TestPredictiveBeatsReauth(t *testing.T) {
	// The paper's claim: predictive handover "eliminates the need to run
	// authentication and association protocols again, ensuring a smooth
	// handoff". Over an hour, total interruption must be far lower.
	p, err := NewPredictor(iridiumSats(t, 3), testUser, 10)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.SimulatePredictive(0, 3600, DefaultPredictiveCosts())
	if err != nil {
		t.Fatal(err)
	}
	reauth, err := p.SimulateReauth(0, 3600, DefaultReauthCosts())
	if err != nil {
		t.Fatal(err)
	}
	if pred.HandoverCount == 0 || reauth.HandoverCount == 0 {
		t.Fatalf("no handovers in an hour of LEO: pred=%d reauth=%d",
			pred.HandoverCount, reauth.HandoverCount)
	}
	if pred.TotalInterruptionS >= reauth.TotalInterruptionS/10 {
		t.Errorf("predictive %v s should be <10%% of reauth %v s",
			pred.TotalInterruptionS, reauth.TotalInterruptionS)
	}
	// Per-event interruptions match the cost models.
	for _, ev := range pred.Events {
		if ev.InterruptionS != DefaultPredictiveCosts().SessionSetupS {
			t.Fatalf("predictive event interruption %v", ev.InterruptionS)
		}
	}
	for _, ev := range reauth.Events {
		if ev.InterruptionS != DefaultReauthCosts().Interruption() {
			t.Fatalf("reauth event interruption %v", ev.InterruptionS)
		}
	}
	// With 3 providers interleaved in-plane, some handovers must cross
	// provider boundaries — the roaming the paper says is "rampant".
	if pred.CrossProviderCount == 0 {
		t.Error("no cross-provider handovers with 3 interleaved providers")
	}
	// Events are ordered and within the horizon.
	prev := 0.0
	for _, ev := range pred.Events {
		if ev.AtS < prev || ev.AtS > 3600 {
			t.Fatalf("event out of order or range: %+v", ev)
		}
		prev = ev.AtS
	}
}

func TestSparseConstellationHasOutage(t *testing.T) {
	// Four satellites cannot cover Pittsburgh continuously: the timeline
	// must record outage, and outage must dwarf handover interruptions.
	sats := iridiumSats(t, 1)[:4]
	p, err := NewPredictor(sats, testUser, 10)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := p.SimulatePredictive(0, 7200, DefaultPredictiveCosts())
	if err != nil {
		t.Fatal(err)
	}
	if tl.OutageS <= 0 {
		t.Error("sparse constellation should have outages")
	}
	if tl.OutageS < 1000 {
		t.Errorf("outage %v s suspiciously small for 4 satellites", tl.OutageS)
	}
}

func TestSimulateValidation(t *testing.T) {
	p, err := NewPredictor(iridiumSats(t, 1), testUser, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SimulatePredictive(0, 0, DefaultPredictiveCosts()); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, err := p.SimulateReauth(0, -1, DefaultReauthCosts()); err == nil {
		t.Error("negative horizon should fail")
	}
}

func TestTimelineStartsInOutage(t *testing.T) {
	// A user who begins in a coverage gap accrues outage until the first
	// satellite rises, then gets normal service — exercising the recovery
	// path of the simulation loop.
	sats := iridiumSats(t, 1)[:6]
	// Find a user location with no visibility at t=0 but some within 2 h.
	user := geo.LatLon{Lat: -45, Lon: -100}
	p, err := NewPredictor(sats, user, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Best(0); ok {
		t.Skip("user starts covered in this geometry")
	}
	tl, err := p.SimulatePredictive(0, 7200, DefaultPredictiveCosts())
	if err != nil {
		t.Fatal(err)
	}
	if tl.OutageS <= 0 {
		t.Error("starting in a gap must record outage")
	}
	// Outage plus service cannot exceed the horizon (sanity).
	if tl.OutageS > 7200 {
		t.Errorf("outage %v exceeds horizon", tl.OutageS)
	}
}

func TestTimelineWholeHorizonOutage(t *testing.T) {
	// One equatorial satellite never serves a polar user: the whole
	// horizon is outage and no handovers occur.
	sats := []Sat{{ID: "eq", Provider: "p", Elements: orbit.Circular(780, 0, 0, 0)}}
	p, err := NewPredictor(sats, geo.LatLon{Lat: 89, Lon: 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := p.SimulateReauth(0, 3600, DefaultReauthCosts())
	if err != nil {
		t.Fatal(err)
	}
	if tl.HandoverCount != 0 {
		t.Errorf("handovers in permanent outage: %d", tl.HandoverCount)
	}
	if tl.OutageS < 3599 {
		t.Errorf("outage %v, want the whole hour", tl.OutageS)
	}
}

func TestTimelineIntermittentSingleSatellite(t *testing.T) {
	// One polar satellite over an equatorial user: periodic passes with
	// long gaps. The timeline must alternate outage → service → outage,
	// exercising the recovery branches, with zero handovers (there is no
	// successor to hand over to).
	sats := []Sat{{ID: "solo", Provider: "p", Elements: orbit.Circular(780, 90, 0, 180)}}
	user := geo.LatLon{Lat: 0, Lon: 0}
	p, err := NewPredictor(sats, user, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Starting at mean anomaly 180° the satellite is on the far side:
	// the user begins in outage.
	if _, ok := p.Best(0); ok {
		t.Fatal("user should start uncovered")
	}
	const horizon = 4 * 3600.0
	tl, err := p.SimulatePredictive(0, horizon, DefaultPredictiveCosts())
	if err != nil {
		t.Fatal(err)
	}
	if tl.HandoverCount != 0 {
		t.Errorf("single satellite cannot hand over, got %d", tl.HandoverCount)
	}
	if tl.OutageS <= 0 || tl.OutageS >= horizon {
		t.Errorf("outage %v should be a strict fraction of %v (intermittent service)",
			tl.OutageS, horizon)
	}
	// Service time = passes actually delivered; a 780 km polar satellite
	// over 4 h gives the equatorial user a few ~10-minute passes.
	service := horizon - tl.OutageS
	if service < 300 || service > 3600 {
		t.Errorf("service time %v s implausible for periodic passes", service)
	}
}
