package assoc

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/openspace-project/openspace/internal/auth"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// beaconFor builds the beacon a satellite on the given elements would send.
func beaconFor(id, provider string, e orbit.Elements, load float64) *Beacon {
	return &Beacon{SatelliteID: id, ProviderID: provider, Orbit: e, LoadFraction: load}
}

func newTestTerminal(t *testing.T) *Terminal {
	t.Helper()
	term, err := NewTerminal("user-1", []byte("secret"), geo.LatLon{Lat: 0, Lon: 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return term
}

func TestNewTerminalValidation(t *testing.T) {
	pos := geo.LatLon{}
	if _, err := NewTerminal("", []byte("s"), pos, 10); err == nil {
		t.Error("empty user should fail")
	}
	if _, err := NewTerminal("u", nil, pos, 10); err == nil {
		t.Error("empty secret should fail")
	}
	if _, err := NewTerminal("u", []byte("s"), geo.LatLon{Lat: 95}, 10); err == nil {
		t.Error("bad position should fail")
	}
}

func TestCandidatesSortedByRange(t *testing.T) {
	term := newTestTerminal(t)
	term.StartScan()
	// Overhead satellite, a farther one, and one below the horizon.
	term.OnBeacon(beaconFor("near", "acme", orbit.Circular(780, 0, 0, 0), 0.1))
	term.OnBeacon(beaconFor("far", "rival", orbit.Circular(780, 0, 0, 15), 0.1))
	term.OnBeacon(beaconFor("hidden", "rival", orbit.Circular(780, 0, 0, 180), 0.1))
	cs := term.Candidates(0)
	if len(cs) != 2 {
		t.Fatalf("got %d candidates, want 2 (hidden excluded): %+v", len(cs), cs)
	}
	if cs[0].SatelliteID != "near" || cs[1].SatelliteID != "far" {
		t.Errorf("order wrong: %+v", cs)
	}
	if cs[0].RangeKm >= cs[1].RangeKm {
		t.Errorf("ranges not sorted: %+v", cs)
	}
	if cs[0].Elevation < 80 {
		t.Errorf("overhead satellite elevation = %v", cs[0].Elevation)
	}
}

func TestCandidatesTieBreakByLoad(t *testing.T) {
	term := newTestTerminal(t)
	term.StartScan()
	// Two satellites at identical geometry but different loads.
	e := orbit.Circular(780, 0, 0, 0)
	term.OnBeacon(beaconFor("busy", "a", e, 0.9))
	term.OnBeacon(beaconFor("calm", "b", e, 0.1))
	cs := term.Candidates(0)
	if len(cs) != 2 || cs[0].SatelliteID != "calm" {
		t.Errorf("load tie-break failed: %+v", cs)
	}
}

// runFullAssociation drives a terminal through the complete exchange
// against a real authenticator.
func runFullAssociation(t *testing.T, term *Terminal, a *auth.Authenticator) error {
	t.Helper()
	term.StartScan()
	term.OnBeacon(beaconFor("sat-1", "roamco", orbit.Circular(780, 0, 0, 0), 0.2))
	req, err := term.SelectAndRequestAuth(0, 777)
	if err != nil {
		return err
	}
	if sat, prov := term.Serving(); sat != "sat-1" || prov != "roamco" {
		t.Fatalf("auth requested via %s/%s, want sat-1/roamco", sat, prov)
	}
	nonce, err := a.Challenge(req.UserID)
	if err != nil {
		term.OnResult(&AuthResult{Success: false, Reason: err.Error()})
		return err
	}
	resp, err := term.OnChallenge(&AuthChallenge{ServerNonce: nonce})
	if err != nil {
		return err
	}
	cert, err := a.VerifyProof(req.UserID, req.ClientNonce, resp.Proof, 0)
	if err != nil {
		return term.OnResult(&AuthResult{Success: false, Reason: err.Error()})
	}
	return term.OnResult(&AuthResult{Success: true, Certificate: cert})
}

func TestFullAssociationFlow(t *testing.T) {
	term := newTestTerminal(t)
	a, err := auth.NewAuthenticator("acme", 3600, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	a.Enroll("user-1", []byte("secret"))
	if err := runFullAssociation(t, term, a); err != nil {
		t.Fatal(err)
	}
	if term.State() != StateAssociated {
		t.Fatalf("state = %v", term.State())
	}
	sat, prov := term.Serving()
	if sat != "sat-1" || prov != "roamco" {
		t.Errorf("serving %s/%s", sat, prov)
	}
	cert := term.cert
	if cert == nil || cert.UserID != "user-1" || cert.Issuer != "acme" {
		t.Errorf("certificate = %v", cert)
	}
	// The certificate verifies under the home ISP's key — a visited
	// provider's check.
	ts := auth.NewTrustStore()
	ts.Add("acme", a.PublicKey())
	if err := ts.Verify(cert, 10); err != nil {
		t.Errorf("roaming cert rejected: %v", err)
	}
}

func TestAuthFailureResetsState(t *testing.T) {
	term := newTestTerminal(t)
	a, err := auth.NewAuthenticator("acme", 3600, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	a.Enroll("user-1", []byte("WRONG")) // server has a different secret
	if err := runFullAssociation(t, term, a); err == nil {
		t.Fatal("association should fail on secret mismatch")
	}
	if term.State() != StateIdle {
		t.Errorf("state after failure = %v", term.State())
	}
	if s, _ := term.Serving(); s != "" {
		t.Errorf("serving after failure = %q", s)
	}
}

func TestStateMachineGuards(t *testing.T) {
	term := newTestTerminal(t)
	// Auth operations require the right states.
	if _, err := term.SelectAndRequestAuth(0, 1); !errors.Is(err, ErrWrongState) {
		t.Errorf("select in idle: %v", err)
	}
	if _, err := term.OnChallenge(&AuthChallenge{}); !errors.Is(err, ErrWrongState) {
		t.Errorf("challenge in idle: %v", err)
	}
	if err := term.OnResult(&AuthResult{Success: true}); !errors.Is(err, ErrWrongState) {
		t.Errorf("result in idle: %v", err)
	}
	if err := term.SwitchTo("x", "y"); !errors.Is(err, ErrWrongState) {
		t.Errorf("switch in idle: %v", err)
	}
	// Scanning with no beacons.
	term.StartScan()
	if _, err := term.SelectAndRequestAuth(0, 1); !errors.Is(err, ErrNoBeacons) {
		t.Errorf("no beacons: %v", err)
	}
}

func TestSwitchToAfterAssociation(t *testing.T) {
	term := newTestTerminal(t)
	a, _ := auth.NewAuthenticator("acme", 3600, rand.New(rand.NewSource(1)))
	a.Enroll("user-1", []byte("secret"))
	if err := runFullAssociation(t, term, a); err != nil {
		t.Fatal(err)
	}
	cert := term.cert
	if err := term.SwitchTo("sat-2", "otherco"); err != nil {
		t.Fatal(err)
	}
	sat, prov := term.Serving()
	if sat != "sat-2" || prov != "otherco" {
		t.Errorf("after switch: %s/%s", sat, prov)
	}
	// Certificate survives handover — no re-auth.
	if term.cert != cert {
		t.Error("certificate lost on handover")
	}
	if term.State() != StateAssociated {
		t.Errorf("state after switch = %v", term.State())
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateIdle: "idle", StateScanning: "scanning",
		StateAuthenticating: "authenticating", StateAssociated: "associated",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state string empty")
	}
}
