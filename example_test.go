package openspace_test

import (
	"crypto/ed25519"
	"fmt"
	"log"
	"math/rand"
	"sort"

	openspace "github.com/openspace-project/openspace"
)

// Quickstart: build a three-provider OpenSpace federation on the paper's
// Iridium-like reference constellation, connect a user in Nairobi, and
// deliver a gigabyte to a gateway in Seattle — association, home-ISP
// authentication, multi-provider routing and per-hop accounting included.
func Example() {
	// Three small firms, each owning a third of the 66-satellite
	// constellation and one gateway ground station.
	net, err := openspace.QuickFederation(3, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("federation members:", net.Providers())

	// A subscriber of prov-0, located in Nairobi.
	if _, err := net.AddUser("alice", "prov-0", openspace.LatLon{Lat: -1.29, Lon: 36.82}); err != nil {
		log.Fatal(err)
	}

	// Precompute the public topology for the next 10 minutes (the paper's
	// proactive routing regime: orbits are public, so every provider can
	// compute the same snapshots).
	if err := net.BuildTopology(0, 600, 60); err != nil {
		log.Fatal(err)
	}

	// Associate: beacon scan, closest-satellite selection, RADIUS-style
	// authentication with the home ISP, roaming certificate issuance.
	if err := net.Associate("alice", 0); err != nil {
		log.Fatal(err)
	}
	sat, provider := net.User("alice").Terminal.Serving()
	fmt.Printf("alice associated with %s (owned by %s)\n", sat, provider)
	if provider != "prov-0" {
		fmt.Println("alice is roaming — served by another provider's satellite")
	}

	// Send 1 GB to the Seattle gateway (gs-0, owned by prov-0).
	d, err := net.Send("alice", "gs-0", 1<<30, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered over %d hops in %.1f ms\n", d.Path.Hops, d.LatencyS*1000)
	fmt.Printf("path: %v\n", d.Path.Nodes)
	fmt.Printf("providers carrying the traffic: %v\n", d.HopOwners)
	fmt.Printf("cross-provider hops: %d | carriage fees $%.3f | gateway fee $%.3f\n",
		d.CrossOwnerHops, d.CarriageUSD, d.GatewayFeeUSD)
	// Output:
	// federation members: [prov-0 prov-1 prov-2]
	// alice associated with iridium-p1s0 (owned by prov-2)
	// alice is roaming — served by another provider's satellite
	// delivered over 5 hops in 61.9 ms
	// path: [alice iridium-p1s0 iridium-p1s1 iridium-p2s2 iridium-p2s3 gs-0]
	// providers carrying the traffic: [prov-2 prov-0 prov-0 prov-1 prov-0]
	// cross-provider hops: 2 | carriage fees $0.429 | gateway fee $0.054
}

// Economics: the §3 cost model end to end. Users of different ISPs push
// traffic through each other's satellites; every provider's ledger tracks
// who carried what; the ledgers cross-verify; bilateral rates settle into
// invoices; and symmetric pairs get a peering recommendation. Finally, the
// capex model shows why splitting a constellation across firms lowers the
// entry barrier.
func Example_economics() {
	net, err := openspace.QuickFederation(3, 11)
	if err != nil {
		log.Fatal(err)
	}
	users := map[string]openspace.LatLon{
		"amina": {Lat: -1.29, Lon: 36.82},  // Nairobi, prov-0
		"bjorn": {Lat: 64.15, Lon: -21.94}, // Reykjavik, prov-1
		"chen":  {Lat: 31.23, Lon: 121.47}, // Shanghai, prov-2
	}
	isps := []string{"prov-0", "prov-1", "prov-2"}
	// Enroll in sorted name order: map iteration order would otherwise
	// reshuffle the user→ISP assignment on every run.
	names := make([]string, 0, len(users))
	for name := range users {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if _, err := net.AddUser(name, isps[i%3], users[name]); err != nil {
			log.Fatal(err)
		}
	}
	if err := net.BuildTopology(0, 600, 60); err != nil {
		log.Fatal(err)
	}
	for _, name := range names {
		if err := net.Associate(name, 0); err != nil {
			log.Fatal(err)
		}
	}

	// Everyone sends 500 MB to every gateway, twice, across ten minutes.
	const chunk = 500_000_000
	sent := 0
	for round := 0; round < 2; round++ {
		for _, name := range names {
			for g := 0; g < 3; g++ {
				t := float64(round*300 + g*60)
				if _, err := net.Send(name, fmt.Sprintf("gs-%d", g), chunk, t); err == nil {
					sent++
				}
			}
		}
	}
	fmt.Printf("delivered %d transfers of 0.5 GB across 3 providers\n\n", sent)

	// §3: ledgers are cross-verifiable between any pair of members.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			a, b := net.Provider(isps[i]).Ledger, net.Provider(isps[j]).Ledger
			if ds := openspace.CrossVerify(a, b); len(ds) != 0 {
				fmt.Printf("ledger mismatch %s/%s: %v\n", isps[i], isps[j], ds)
			} else {
				fmt.Printf("ledgers %s ↔ %s agree\n", isps[i], isps[j])
			}
		}
	}

	// Settlement at a flat $0.20/GB bilateral rate.
	fmt.Println("\nsettlement (prov-0's books):")
	inv := openspace.Settle(net.Provider("prov-0").Ledger, openspace.RateCard{Default: 0.20})
	for _, v := range inv {
		fmt.Printf("  %s bills %s $%6.2f for %5.2f GB carried\n",
			v.Flow.Carrier, v.Flow.Customer, v.AmountUSD, float64(v.Bytes)/1e9)
	}
	balances := openspace.NetBalances(inv)
	parties := make([]string, 0, len(balances))
	for p := range balances {
		parties = append(parties, p)
	}
	sort.Strings(parties)
	for _, p := range parties {
		fmt.Printf("  net position %s: %+.2f USD\n", p, balances[p])
	}

	// Peering: symmetric mutual carriage should be settled for free.
	for _, pc := range openspace.PeeringCandidates(net.Provider("prov-0").Ledger, chunk, 0.3) {
		fmt.Printf("\npeering recommended: %s ↔ %s (volume symmetry %.2f)\n", pc.A, pc.B, pc.Symmetry)
	}

	// Capex: why democratization works. One firm building all 66 satellites
	// vs six firms building 11 each.
	capex := openspace.DefaultCapex()
	global := openspace.FleetPlan{Satellites: 66, LaserFraction: 0.3, GroundStations: 6}
	full, err := capex.FleetUSD(global)
	if err != nil {
		log.Fatal(err)
	}
	ratio, err := capex.EntryBarrierRatio(global, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncapex: a monolithic 66-satellite system costs $%.0fM up front;\n", full/1e6)
	fmt.Printf("splitting it across 6 OpenSpace firms cuts each firm's outlay %.1fx\n", ratio)
	fmt.Printf("(laser terminal $%.0fk and FCC fee $%.0f per satellite, per the paper)\n",
		capex.LaserTerminalUSD/1e3, capex.RegulatoryFeeUSD)
	// Output:
	// delivered 18 transfers of 0.5 GB across 3 providers
	//
	// ledgers prov-0 ↔ prov-1 agree
	// ledgers prov-0 ↔ prov-2 agree
	// ledgers prov-1 ↔ prov-2 agree
	//
	// settlement (prov-0's books):
	//   prov-0 bills prov-1 $  0.60 for  3.00 GB carried
	//   prov-0 bills prov-2 $  1.30 for  6.50 GB carried
	//   prov-1 bills prov-0 $  0.70 for  3.50 GB carried
	//   prov-2 bills prov-0 $  0.60 for  3.00 GB carried
	//   net position prov-0: +0.60 USD
	//   net position prov-1: +0.10 USD
	//   net position prov-2: -0.70 USD
	//
	// peering recommended: prov-0 ↔ prov-2 (volume symmetry 0.46)
	//
	// peering recommended: prov-0 ↔ prov-1 (volume symmetry 0.86)
	//
	// capex: a monolithic 66-satellite system costs $116M up front;
	// splitting it across 6 OpenSpace firms cuts each firm's outlay 6.0x
	// (laser terminal $500k and FCC fee $12145 per satellite, per the paper)
}

// Regulation: the paper's §5(3) open problem made concrete. A user in
// Paris operates under a data-residency rule — their traffic may only touch
// the ground inside Europe. The residency filter removes non-compliant
// gateway links at path-computation time, so the compliant route is chosen
// even when a non-European gateway would be faster; licensing and spectrum
// checks round out the jurisdiction model.
func Example_regulation() {
	// One provider's Iridium fleet, gateways in Seattle and London.
	c, err := openspace.Iridium().Build()
	if err != nil {
		log.Fatal(err)
	}
	sats := make([]openspace.SatSpec, c.Len())
	for i, s := range c.Satellites {
		sats[i] = openspace.SatSpec{ID: s.ID, Provider: "acme", Elements: s.Elements}
	}
	paris := openspace.LatLon{Lat: 48.85, Lon: 2.35}
	users := []openspace.UserSpec{{ID: "user-paris", Provider: "acme", Pos: paris}}
	grounds := []openspace.GroundSpec{
		{ID: "gs-seattle", Provider: "acme", Pos: openspace.LatLon{Lat: 47.6, Lon: -122.3}},
		{ID: "gs-london", Provider: "acme", Pos: openspace.LatLon{Lat: 51.51, Lon: -0.13}},
	}
	snap := openspace.BuildSnapshot(0, openspace.DefaultTopology(), sats, grounds, users)

	atlas := openspace.DefaultAtlas()
	fmt.Println("jurisdictions:", atlas.Regions())
	userRegion := atlas.RegionOf(paris)
	fmt.Printf("user region: %s\n\n", userRegion)

	policy := openspace.RegulatoryPolicy{
		Residency: map[string][]string{"europe": {"europe"}},
		Spectrum:  map[string][]openspace.Band{"europe": {openspace.BandKu}},
		Licenses:  map[string]map[string]bool{"acme": {"europe": true, "north-america": true}},
	}

	// Without the filter: whichever gateway is nearer wins.
	for _, gs := range []string{"gs-seattle", "gs-london"} {
		p, err := openspace.ShortestPath(snap, "user-paris", gs, openspace.LatencyCost(0))
		if err != nil {
			fmt.Printf("unfiltered %s: unreachable\n", gs)
			continue
		}
		fmt.Printf("unfiltered %-10s: %d hops, %.1f ms\n", gs, p.Hops, p.DelayS*1000)
	}

	// With the filter: the Seattle downlink is severed for this user.
	cost := openspace.ResidencyFilter(openspace.LatencyCost(0), atlas, policy, userRegion)
	fmt.Println("\nwith europe-only data residency:")
	for _, gs := range []string{"gs-seattle", "gs-london"} {
		p, err := openspace.ShortestPath(snap, "user-paris", gs, cost)
		if err != nil {
			fmt.Printf("  %-10s: blocked (%s outside permitted regions)\n", gs,
				atlas.RegionOf(snap.Node(gs).Pos.LatLon()))
			continue
		}
		fmt.Printf("  %-10s: %d hops, %.1f ms — compliant\n", gs, p.Hops, p.DelayS*1000)
	}

	// Licensing and spectrum checks.
	fmt.Println("\nlicensing and spectrum:")
	fmt.Printf("  acme licensed to serve europe: %v\n", policy.Licensed("acme", "europe"))
	fmt.Printf("  acme licensed to serve asia:   %v\n", policy.Licensed("acme", "asia"))
	fmt.Printf("  Ku-band ground links in europe: %v\n", policy.BandAllowed("europe", openspace.BandKu))
	fmt.Printf("  Ka-band ground links in europe: %v\n", policy.BandAllowed("europe", openspace.BandKa))
	// Output:
	// jurisdictions: [north-america south-america europe africa asia oceania]
	// user region: europe
	//
	// unfiltered gs-seattle: 4 hops, 33.9 ms
	// unfiltered gs-london : 2 hops, 13.2 ms
	//
	// with europe-only data residency:
	//   gs-seattle: blocked (north-america outside permitted regions)
	//   gs-london : 2 hops, 13.2 ms — compliant
	//
	// licensing and spectrum:
	//   acme licensed to serve europe: true
	//   acme licensed to serve asia:   false
	//   Ku-band ground links in europe: true
	//   Ka-band ground links in europe: false
}

// Secure roaming: the paper's §5(6) security baseline in action. A user's
// data crosses satellites owned by providers it never signed up with — so
// it travels sealed end to end (AES-GCM keyed off the subscription secret),
// relays can't read or tamper with it, and a provider caught misbehaving by
// ledger cross-verification is reported, quarantined by quorum, and routed
// around.
func Example_secureRoaming() {
	// --- End-to-end encryption over untrusted relays ---
	subscriptionSecret := []byte("alice-and-her-home-isp-know-this")
	uplink, err := openspace.NewSecureSession(subscriptionSecret, "alice->home")
	if err != nil {
		log.Fatal(err)
	}
	homeSide, err := openspace.NewSecureSession(subscriptionSecret, "alice->home")
	if err != nil {
		log.Fatal(err)
	}

	routingHeader := []byte("dst=gs-0;flow=77") // relays must read this
	env := uplink.Seal([]byte("my private message"), routingHeader)
	fmt.Printf("alice sends %d ciphertext bytes; relays see only the header %q\n",
		len(env.Ciphertext), routingHeader)

	// A malicious relay flips one bit → the home ISP detects it.
	tampered := env
	tampered.Ciphertext = append([]byte(nil), env.Ciphertext...)
	tampered.Ciphertext[3] ^= 0x01
	if _, err := homeSide.Open(tampered, routingHeader); err != nil {
		fmt.Println("tampered copy rejected:", err)
	}
	// The genuine envelope decrypts; a replay of it does not.
	if msg, err := homeSide.Open(env, routingHeader); err == nil {
		fmt.Printf("home ISP decrypted: %q\n", msg)
	}
	if _, err := homeSide.Open(env, routingHeader); err != nil {
		fmt.Println("replayed copy rejected:", err)
	}

	// --- Bad-actor detection and cutoff ---
	// Three providers exchange report-signing keys when joining OpenSpace.
	reg, err := openspace.NewQuarantineRegistry(2) // two accusers = quarantine
	if err != nil {
		log.Fatal(err)
	}
	keys := map[string]ed25519.PrivateKey{}
	for i, name := range []string{"acme", "orbitco", "skynet"} {
		pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(int64(i + 1))))
		if err != nil {
			log.Fatal(err)
		}
		keys[name] = priv
		reg.AddMember(name, pub)
	}

	// acme's ledger cross-verification catches skynet inflating its
	// carriage claims; orbitco independently sees dropped traffic. Reports
	// are filed in a fixed order so the printed accuser tally is stable.
	evidenceByReporter := map[string]string{
		"acme":    "CrossVerify: skynet claims 2.5 GB carried, our ledger says 2.0 GB",
		"orbitco": "4 of 40 frames handed to skynet never reached the gateway",
	}
	for _, reporter := range []string{"acme", "orbitco"} {
		evidence := evidenceByReporter[reporter]
		kind := openspace.ReportLedgerFraud
		if reporter == "orbitco" {
			kind = openspace.ReportTrafficDrop
		}
		r := openspace.MisbehaviourReport{
			Reporter: reporter, Accused: "skynet", Kind: kind,
			Evidence: evidence, AtS: 1000,
		}
		r.Sign(keys[reporter])
		if err := reg.Submit(r); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s files a signed report against skynet (%d/%d accusers)\n",
			reporter, reg.Accusers("skynet"), 2)
	}
	if reg.Quarantined("skynet") {
		fmt.Println("quorum reached: skynet is quarantined — new routes exclude its satellites")
	}
	fmt.Println("quarantined providers:", reg.QuarantinedProviders())
	// Output:
	// alice sends 34 ciphertext bytes; relays see only the header "dst=gs-0;flow=77"
	// tampered copy rejected: security: authentication failed (tampered or wrong key)
	// home ISP decrypted: "my private message"
	// replayed copy rejected: security: replayed or reordered envelope: seq 1 ≤ 1
	// acme files a signed report against skynet (1/2 accusers)
	// orbitco files a signed report against skynet (2/2 accusers)
	// quorum reached: skynet is quarantined — new routes exclude its satellites
	// quarantined providers: [skynet]
}
