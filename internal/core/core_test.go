package core

import (
	"crypto/ed25519"
	"math"
	"strings"
	"testing"

	"github.com/openspace-project/openspace/internal/assoc"
	"github.com/openspace-project/openspace/internal/auth"
	"github.com/openspace-project/openspace/internal/economics"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// threeProviderConfig splits Iridium across three firms, with ground
// stations owned by two of them.
func threeProviderConfig(t *testing.T) NetworkConfig {
	t.Helper()
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	fleets := SplitConstellation(c, 3, 0.3)
	return NetworkConfig{
		Providers: []ProviderConfig{
			{
				ID: "acme", Satellites: fleets[0], CarriagePerGB: 0.20,
				GroundStations: []GroundStationConfig{
					{ID: "gs-seattle", Pos: geo.LatLon{Lat: 47.6, Lon: -122.3}, BackhaulBps: 10e9, PricePerGB: 0.05, VisitorSurge: 2},
				},
			},
			{
				ID: "orbitco", Satellites: fleets[1], CarriagePerGB: 0.30,
				GroundStations: []GroundStationConfig{
					{ID: "gs-nairobi", Pos: geo.LatLon{Lat: -1.29, Lon: 36.82}, BackhaulBps: 5e9, PricePerGB: 0.08, VisitorSurge: 3},
				},
			},
			{ID: "skynet", Satellites: fleets[2], CarriagePerGB: 0.25},
		},
		Seed: 42,
	}
}

// builtNetwork returns a network with one user, topology built.
func builtNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(threeProviderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddUser("alice", "acme", geo.LatLon{Lat: 40.44, Lon: -79.99}); err != nil {
		t.Fatal(err)
	}
	if err := n.BuildTopology(0, 300, 60); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	good := threeProviderConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*NetworkConfig){
		func(c *NetworkConfig) { c.Providers = nil },
		func(c *NetworkConfig) { c.Providers[0].ID = "" },
		func(c *NetworkConfig) { c.Providers[1].ID = c.Providers[0].ID },
		func(c *NetworkConfig) { c.Providers[0].CarriagePerGB = -1 },
		func(c *NetworkConfig) { c.Providers[0].Satellites[0].ID = "" },
		func(c *NetworkConfig) { c.Providers[0].Satellites[1].ID = c.Providers[0].Satellites[0].ID },
		func(c *NetworkConfig) { c.Providers[0].Satellites[0].Elements = orbit.Elements{} },
		func(c *NetworkConfig) { c.Providers[0].Satellites[0].MaxISLs = -1 },
		func(c *NetworkConfig) { c.Providers[0].GroundStations[0].ID = "" },
		func(c *NetworkConfig) { c.Providers[0].GroundStations[0].Pos = geo.LatLon{Lat: 99} },
		func(c *NetworkConfig) { c.Providers[0].GroundStations[0].BackhaulBps = 0 },
		func(c *NetworkConfig) { c.CertTTLS = -1 },
		func(c *NetworkConfig) { c.PerHopProcessingS = -1 },
	}
	for i, mutate := range cases {
		cfg := threeProviderConfig(t)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
	// Duplicate node ID across providers.
	cfg := threeProviderConfig(t)
	cfg.Providers[1].GroundStations[0].ID = cfg.Providers[0].GroundStations[0].ID
	if cfg.Validate() == nil {
		t.Error("duplicate station ID across providers should be invalid")
	}
}

func TestSplitConstellation(t *testing.T) {
	c, err := orbit.Iridium().Build()
	if err != nil {
		t.Fatal(err)
	}
	fleets := SplitConstellation(c, 3, 0.5)
	if len(fleets) != 3 {
		t.Fatalf("fleet count %d", len(fleets))
	}
	total, lasers := 0, 0
	for _, f := range fleets {
		total += len(f)
		for _, s := range f {
			if s.HasLaser {
				lasers++
			}
		}
	}
	if total != 66 {
		t.Errorf("total satellites %d", total)
	}
	if lasers != 33 {
		t.Errorf("laser satellites %d, want 33 (every 2nd)", lasers)
	}
	if SplitConstellation(c, 0, 0) != nil {
		t.Error("zero fleets should be nil")
	}
	// Zero laser fraction → none.
	for _, f := range SplitConstellation(c, 2, 0) {
		for _, s := range f {
			if s.HasLaser {
				t.Fatal("laser satellite with zero fraction")
			}
		}
	}
}

func TestNewNetworkFederation(t *testing.T) {
	n, err := NewNetwork(threeProviderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Providers(); len(got) != 3 || got[0] != "acme" {
		t.Errorf("providers = %v", got)
	}
	// Cross-provider trust: every provider trusts acme-issued certificates.
	acme := n.Provider("acme")
	acme.Auth.Enroll("u", []byte("s"))
	nonce, err := acme.Auth.Challenge("u")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := acme.Auth.VerifyProof("u", 1, proofFor([]byte("s"), 1, nonce), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Roaming is expected: a user's serving provider is frequently not its
	// home ISP, so an acme certificate must verify under every provider's
	// trust store.
	if cert.Issuer != "acme" {
		t.Errorf("certificate issuer = %q, want acme", cert.Issuer)
	}
	for _, pid := range n.Providers() {
		if err := n.Provider(pid).Trust.Verify(cert, 1); err != nil {
			t.Errorf("provider %s rejects cert: %v", pid, err)
		}
	}
	if n.Provider("ghost") != nil {
		t.Error("phantom provider")
	}
}

func TestAddUser(t *testing.T) {
	n, err := NewNetwork(threeProviderConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	u, err := n.AddUser("alice", "acme", geo.LatLon{Lat: 1, Lon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if u.Terminal.State() != assoc.StateIdle {
		t.Error("fresh user should be idle")
	}
	if _, err := n.AddUser("alice", "acme", geo.LatLon{}); err == nil {
		t.Error("duplicate user should fail")
	}
	if _, err := n.AddUser("bob", "ghost", geo.LatLon{}); err == nil {
		t.Error("unknown ISP should fail")
	}
	// A user named like a satellite or ground station would share its
	// topology node.
	sat := n.Provider("orbitco").Satellites[0].ID
	for _, id := range []string{sat, "gs-nairobi"} {
		if _, err := n.AddUser(id, "acme", geo.LatLon{}); err == nil || !strings.Contains(err.Error(), id) {
			t.Errorf("AddUser(%q) = %v, want an error naming the clash", id, err)
		}
		if n.User(id) != nil {
			t.Errorf("clashing user %q was added", id)
		}
	}
	// An ID its roaming certificate cannot carry would enroll and then
	// never roam.
	long := strings.Repeat("u", math.MaxUint16+1)
	if _, err := n.AddUser(long, "acme", geo.LatLon{}); err == nil || n.User(long) != nil {
		t.Errorf("AddUser with a %d-byte ID = %v, want an error", len(long), err)
	}
	if n.User("alice") != u || n.User("ghost") != nil {
		t.Error("User lookup broken")
	}
}

func TestAssociateEndToEnd(t *testing.T) {
	n := builtNetwork(t)
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	u := n.User("alice")
	if u.Terminal.State() != assoc.StateAssociated {
		t.Fatalf("state = %v", u.Terminal.State())
	}
	sat, prov := u.Terminal.Serving()
	if sat == "" || prov == "" {
		t.Fatal("no serving satellite")
	}
	// Errors.
	if err := n.Associate("ghost", 0); err == nil {
		t.Error("unknown user should fail")
	}
	n2, _ := NewNetwork(threeProviderConfig(t))
	n2.AddUser("bob", "acme", geo.LatLon{})
	if err := n2.Associate("bob", 0); err == nil {
		t.Error("associate before BuildTopology should fail")
	}
}

func TestSendEndToEnd(t *testing.T) {
	n := builtNetwork(t)
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	const bytes = 2_000_000_000 // 2 GB
	d, err := n.Send("alice", "gs-nairobi", bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Path endpoints.
	nodes := d.Path.Nodes
	if nodes[0] != "alice" || nodes[len(nodes)-1] != "gs-nairobi" {
		t.Fatalf("path endpoints: %v", nodes)
	}
	// Latency is plausible: Pittsburgh→Nairobi ≥ 11,800 km surface.
	if d.LatencyS < 0.035 || d.LatencyS > 1 {
		t.Errorf("latency %v s implausible", d.LatencyS)
	}
	if len(d.HopOwners) != d.Path.Hops {
		t.Errorf("hop owners %d for %d hops", len(d.HopOwners), d.Path.Hops)
	}
	// Gateway fee: gs-nairobi belongs to orbitco; alice is an acme user →
	// visitor pricing (base 0.08, idle so no surge) for 2 GB.
	if d.GatewayFeeUSD != 0.16 {
		t.Errorf("gateway fee %v, want 0.16", d.GatewayFeeUSD)
	}
	// Every carrier's ledger and the home ledger agree (cross-verifiable).
	acme := n.Provider("acme").Ledger
	for _, pid := range n.Providers()[1:] {
		if ds := economics.CrossVerify(acme, n.Provider(pid).Ledger); len(ds) != 0 {
			t.Errorf("ledgers disagree acme vs %s: %v", pid, ds)
		}
	}
	// Cross-owner hops must exist with 3 interleaved providers, and
	// carriage must be charged.
	if d.CrossOwnerHops == 0 || d.CarriageUSD <= 0 {
		t.Errorf("no cross-provider carriage: %+v", d)
	}
}

func TestSendValidation(t *testing.T) {
	n := builtNetwork(t)
	if _, err := n.Send("alice", "gs-nairobi", 100, 0); err == nil ||
		!strings.Contains(err.Error(), "not associated") {
		t.Errorf("unassociated send: %v", err)
	}
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send("alice", "gs-nairobi", 0, 0); err == nil {
		t.Error("zero bytes should fail")
	}
	if _, err := n.Send("ghost", "gs-nairobi", 1, 0); err == nil {
		t.Error("unknown user should fail")
	}
	if _, err := n.Send("alice", "gs-ghost", 1, 0); err == nil {
		t.Error("unknown station should fail")
	}
}

func TestPathProvidersMeshed(t *testing.T) {
	// How "meshed" a delivery is (§3's argument for why BGP's
	// provider/customer split does not map onto OpenSpace): interleaved
	// fleets put more than one provider on alice's route.
	n := builtNetwork(t)
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	d, err := n.Send("alice", "gs-nairobi", 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, p := range d.HopOwners {
		owners[p] = true
	}
	if len(owners) < 2 {
		t.Errorf("interleaved fleets should mesh providers; hop owners %v", d.HopOwners)
	}
}

func TestFederationGain(t *testing.T) {
	n := builtNetwork(t)
	g, err := n.FederationGain(0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Solo) != 3 {
		t.Fatalf("solo map = %v", g.Solo)
	}
	// 22 satellites each cover real area but far less than the union.
	for pid, f := range g.Solo {
		if f <= 0 || f >= g.Union {
			t.Errorf("provider %s solo coverage %v vs union %v", pid, f, g.Union)
		}
	}
	if g.Union < 0.95 {
		t.Errorf("federated Iridium union coverage %v, want ≥0.95", g.Union)
	}
	if g.BestSolo >= g.Union {
		t.Errorf("best solo %v should trail union %v", g.BestSolo, g.Union)
	}
	// Unknown provider errors.
	if _, err := n.CoverageFraction(0, []string{"ghost"}, 100); err == nil {
		t.Error("unknown provider should fail")
	}
}

func TestConnectivity(t *testing.T) {
	n := builtNetwork(t)
	stats := n.Connectivity(0)
	if stats.Pairs != 2 { // alice × 2 stations
		t.Fatalf("pairs = %d", stats.Pairs)
	}
	if stats.Reachable != 2 || stats.Fraction() != 1 {
		t.Errorf("full Iridium should connect everything: %+v", stats)
	}
	// Before topology: zero stats.
	n2, _ := NewNetwork(threeProviderConfig(t))
	if s := n2.Connectivity(0); s.Pairs != 0 || s.Fraction() != 0 {
		t.Errorf("pre-topology connectivity = %+v", s)
	}
}

// proofFor wraps auth.Proof for the federation trust test.
func proofFor(secret []byte, clientNonce, serverNonce uint64) []byte {
	return auth.Proof(secret, clientNonce, serverNonce)
}

// receiptVerifies checks r's signature against key. SignWith hands its
// signer the bytes a carrier signs, which is all ed25519.Verify needs.
func receiptVerifies(r economics.Receipt, key ed25519.PublicKey) bool {
	sig := r.Sig
	var msg []byte
	r.SignWith(func(b []byte) []byte { msg = b; return nil })
	return ed25519.Verify(key, msg, sig)
}

func TestSendProducesVerifiableReceipts(t *testing.T) {
	n := builtNetwork(t)
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	d, err := n.Send("alice", "gs-nairobi", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Receipts) != len(d.HopOwners) {
		t.Fatalf("receipts %d vs hops %d", len(d.Receipts), len(d.HopOwners))
	}
	keys := make(map[string]ed25519.PublicKey, len(n.providers))
	for id, p := range n.providers {
		keys[id] = p.Auth.PublicKey()
	}
	for i, r := range d.Receipts {
		if !receiptVerifies(r, keys[r.Carrier]) {
			t.Fatalf("receipt %d does not verify against %s's key", i, r.Carrier)
		}
		first := d.Receipts[0]
		if r.HopIndex != i || r.FlowID != first.FlowID || r.Customer != first.Customer || r.Bytes != first.Bytes {
			t.Fatalf("receipt %d %+v breaks the chain of %+v", i, r, first)
		}
	}
	// A tampered receipt is detected.
	forged := d.Receipts[0]
	forged.Bytes = 999999
	if receiptVerifies(forged, keys[forged.Carrier]) {
		t.Error("tampered receipt accepted")
	}
	// The chain applied to a fresh auditor ledger agrees with the home
	// ISP's own books for this flow's carriers.
	audit := economics.NewLedger("acme")
	carriers := make([]string, len(d.Receipts))
	for i, r := range d.Receipts {
		carriers[i] = r.Carrier
	}
	if err := audit.RecordPath(d.Receipts[0].Customer, carriers, d.Receipts[0].Bytes); err != nil {
		t.Fatal(err)
	}
	for _, owner := range d.HopOwners {
		if owner == "acme" {
			continue
		}
		if audit.Carried(owner, "acme") == 0 {
			t.Errorf("auditor ledger missing carriage by %s", owner)
		}
	}
	// Flow IDs increment.
	d2, err := n.Send("alice", "gs-nairobi", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.FlowID != d.FlowID+1 {
		t.Errorf("flow IDs: %d then %d", d.FlowID, d2.FlowID)
	}
}
