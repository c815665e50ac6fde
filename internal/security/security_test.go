package security

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

func TestSessionRoundTrip(t *testing.T) {
	master := []byte("user-shared-secret")
	tx, err := NewSession(master, "user->home")
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSession(master, "user->home")
	if err != nil {
		t.Fatal(err)
	}
	aad := []byte("routing-header")
	for i := 0; i < 10; i++ {
		msg := []byte{byte(i), 'd', 'a', 't', 'a'}
		env := tx.Seal(msg, aad)
		got, err := rx.Open(env, aad)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d mismatch", i)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, "x"); !errors.Is(err, ErrKeyLength) {
		t.Errorf("empty master: %v", err)
	}
}

func TestSessionReplayRejected(t *testing.T) {
	master := []byte("k")
	tx, _ := NewSession(master, "d")
	rx, _ := NewSession(master, "d")
	e1 := tx.Seal([]byte("one"), nil)
	e2 := tx.Seal([]byte("two"), nil)
	if _, err := rx.Open(e1, nil); err != nil {
		t.Fatal(err)
	}
	// Replay of e1.
	if _, err := rx.Open(e1, nil); !errors.Is(err, ErrReplay) {
		t.Errorf("replay: %v", err)
	}
	if _, err := rx.Open(e2, nil); err != nil {
		t.Fatal(err)
	}
	// Reordering below high-water mark.
	if _, err := rx.Open(e1, nil); !errors.Is(err, ErrReplay) {
		t.Errorf("reorder: %v", err)
	}
}

func TestSessionTamperDetected(t *testing.T) {
	master := []byte("k")
	tx, _ := NewSession(master, "d")
	env := tx.Seal([]byte("secret payload"), []byte("aad"))

	// Flip any ciphertext bit → rejected.
	for i := 0; i < len(env.Ciphertext); i++ {
		rx, _ := NewSession(master, "d")
		mut := env
		mut.Ciphertext = bytes.Clone(env.Ciphertext)
		mut.Ciphertext[i] ^= 0x01
		if _, err := rx.Open(mut, []byte("aad")); !errors.Is(err, ErrTampered) {
			t.Fatalf("bit flip at %d accepted: %v", i, err)
		}
	}
	// Wrong AAD → rejected (the relay cannot swap routing headers).
	rx, _ := NewSession(master, "d")
	if _, err := rx.Open(env, []byte("other-header")); !errors.Is(err, ErrTampered) {
		t.Errorf("aad swap: %v", err)
	}
	// Wrong direction label → different key → rejected.
	rx2, _ := NewSession(master, "home->user")
	if _, err := rx2.Open(env, []byte("aad")); !errors.Is(err, ErrTampered) {
		t.Errorf("cross-direction: %v", err)
	}
}

func TestSealedTrafficUnreadableByRelay(t *testing.T) {
	// A relaying satellite sees only ciphertext: no plaintext bytes of a
	// low-entropy message survive in the envelope.
	tx, _ := NewSession([]byte("k"), "d")
	msg := bytes.Repeat([]byte("A"), 64)
	env := tx.Seal(msg, nil)
	if bytes.Contains(env.Ciphertext, []byte("AAAA")) {
		t.Error("plaintext pattern visible in ciphertext")
	}
}

func TestDeriveKeyProperties(t *testing.T) {
	f := func(master []byte, l1, l2 string) bool {
		if len(master) == 0 || l1 == l2 {
			return true
		}
		k1 := DeriveKey(master, l1)
		k2 := DeriveKey(master, l2)
		return len(k1) == 32 && !bytes.Equal(k1, k2) &&
			bytes.Equal(k1, DeriveKey(master, l1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func memberKey(t *testing.T, seed int64) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestRegistryQuorum(t *testing.T) {
	reg, err := NewRegistry(2)
	if err != nil {
		t.Fatal(err)
	}
	pubA, privA := memberKey(t, 1)
	pubB, privB := memberKey(t, 2)
	reg.AddMember("a", pubA)
	reg.AddMember("b", pubB)

	r1 := Report{Reporter: "a", Accused: "evil", Kind: KindLedgerFraud, Evidence: "crossverify mismatch", AtS: 10}
	r1.Sign(privA)
	if err := reg.Submit(r1); err != nil {
		t.Fatal(err)
	}
	if reg.Quarantined("evil") {
		t.Error("one accuser should not quarantine at quorum 2")
	}
	// The same reporter filing again does not add a vote.
	r1b := Report{Reporter: "a", Accused: "evil", Kind: KindTrafficDrop, Evidence: "again", AtS: 11}
	r1b.Sign(privA)
	if err := reg.Submit(r1b); err != nil {
		t.Fatal(err)
	}
	if reg.Accusers("evil") != 1 {
		t.Errorf("accusers = %d, want 1", reg.Accusers("evil"))
	}
	// Second distinct accuser trips the quorum.
	r2 := Report{Reporter: "b", Accused: "evil", Kind: KindInterception, Evidence: "aead failures", AtS: 12}
	r2.Sign(privB)
	if err := reg.Submit(r2); err != nil {
		t.Fatal(err)
	}
	if !reg.Quarantined("evil") {
		t.Error("quorum met but not quarantined")
	}
	if got := reg.QuarantinedProviders(); len(got) != 1 || got[0] != "evil" {
		t.Errorf("quarantined list = %v", got)
	}
}

func TestRegistryRejections(t *testing.T) {
	reg, _ := NewRegistry(1)
	pubA, privA := memberKey(t, 1)
	_, privEvil := memberKey(t, 3)
	reg.AddMember("a", pubA)

	// Unknown reporter.
	r := Report{Reporter: "stranger", Accused: "x", Kind: KindLedgerFraud}
	r.Sign(privEvil)
	if err := reg.Submit(r); !errors.Is(err, ErrUnknownReporter) {
		t.Errorf("unknown reporter: %v", err)
	}
	// Bad signature (signed by the wrong key).
	r = Report{Reporter: "a", Accused: "x", Kind: KindLedgerFraud}
	r.Sign(privEvil)
	if err := reg.Submit(r); !errors.Is(err, ErrBadReportSig) {
		t.Errorf("forged report: %v", err)
	}
	// Tampered after signing.
	r = Report{Reporter: "a", Accused: "x", Kind: KindLedgerFraud, Evidence: "real"}
	r.Sign(privA)
	r.Evidence = "altered"
	if err := reg.Submit(r); !errors.Is(err, ErrBadReportSig) {
		t.Errorf("tampered report: %v", err)
	}
	// Self accusation.
	r = Report{Reporter: "a", Accused: "a", Kind: KindLedgerFraud}
	r.Sign(privA)
	if err := reg.Submit(r); !errors.Is(err, ErrSelfReport) {
		t.Errorf("self report: %v", err)
	}
	// Zero quorum invalid.
	if _, err := NewRegistry(0); err == nil {
		t.Error("zero quorum should fail")
	}
}

func TestReportKindStrings(t *testing.T) {
	for k, want := range map[ReportKind]string{
		KindLedgerFraud: "ledger-fraud", KindTrafficDrop: "traffic-drop",
		KindInterception: "interception",
	} {
		if k.String() != want {
			t.Errorf("%d → %q", k, k.String())
		}
	}
	if ReportKind(99).String() == "" {
		t.Error("unknown kind string")
	}
}

func TestExcludeQuarantinedReroutes(t *testing.T) {
	// Build a 2-provider Iridium snapshot; quarantine one provider and
	// verify new paths avoid its satellites entirely.
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	sats := make([]topo.SatSpec, c.Len())
	for i, s := range c.Satellites {
		p := "good"
		if i%2 == 1 {
			p = "evil"
		}
		sats[i] = topo.SatSpec{ID: s.ID, Provider: p, Elements: s.Elements}
	}
	users := []topo.UserSpec{{ID: "u", Provider: "good", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}}}
	grounds := []topo.GroundSpec{{ID: "g", Provider: "good", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}}}
	// LOS-only ISLs: quarantining half the fleet must still leave the
	// cross-plane zigzag routes that avoid it, so the filter (not radio
	// range) is what this test exercises.
	tcfg := topo.DefaultConfig()
	tcfg.ISLRangeKm = 1e6
	tcfg.MinElevationDeg = 0
	snap := topo.Build(0, tcfg, sats, grounds, users)

	reg, _ := NewRegistry(1)
	pubA, privA := memberKey(t, 1)
	reg.AddMember("good", pubA)
	r := Report{Reporter: "good", Accused: "evil", Kind: KindTrafficDrop, Evidence: "drops"}
	r.Sign(privA)
	if err := reg.Submit(r); err != nil {
		t.Fatal(err)
	}

	cost := ExcludeQuarantined(routing.LatencyCost(0), reg)
	p, err := routing.ShortestPath(snap, "u", "g", cost)
	if err != nil {
		// Possible if good-only satellites cannot connect the endpoints —
		// but half an Iridium constellation should.
		t.Fatalf("no quarantine-free path: %v", err)
	}
	for _, node := range p.Nodes {
		if snap.Node(node).Provider == "evil" {
			t.Fatalf("path traverses quarantined provider: %v", p.Nodes)
		}
	}
	// Without the filter, the optimum uses both providers (sanity check
	// that the filter actually changed anything).
	base, err := routing.ShortestPath(snap, "u", "g", routing.LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	usesEvil := false
	for _, node := range base.Nodes {
		if snap.Node(node).Provider == "evil" {
			usesEvil = true
			break
		}
	}
	if !usesEvil {
		t.Skip("baseline path happens to avoid evil; geometry too benign to compare")
	}
	if p.Cost < base.Cost {
		t.Error("restricted path cannot beat the unrestricted optimum")
	}
}
