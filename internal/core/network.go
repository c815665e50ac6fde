package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"github.com/openspace-project/openspace/internal/assoc"
	"github.com/openspace-project/openspace/internal/auth"
	"github.com/openspace-project/openspace/internal/economics"
	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/ground"
	"github.com/openspace-project/openspace/internal/handover"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// RNG domains for network provisioning (keys, nonces) and scenario
// workloads (arrivals, sizes): distinct streams even when configured with
// the same seed — seeding both straight from the config value would
// silently correlate them. The IDs predate the tags, so every committed
// result keeps its stream; the tags are what the seeddomain analyzer
// checks for repo-wide uniqueness.
var (
	domainNetwork  = exec.Domain{Tag: "core/network", ID: 1}
	domainScenario = exec.Domain{Tag: "core/scenario", ID: 2}
)

// Provider is one federation member at run time.
type Provider struct {
	ID            string
	CarriagePerGB float64
	Auth          *auth.Authenticator
	Trust         *auth.TrustStore
	Ledger        *economics.Ledger
	Stations      map[string]*ground.Station
	Satellites    []SatelliteConfig
}

// User is one subscriber terminal at run time.
type User struct {
	ID       string
	HomeISP  string
	Pos      geo.LatLon
	Terminal *assoc.Terminal
}

// Network is an assembled OpenSpace federation. Its membership is fixed,
// so NewNetwork resolves the directory, fleet and gateway list once.
type Network struct {
	cfg       NetworkConfig
	providers map[string]*Provider
	users     map[string]*User
	rng       *rand.Rand

	providerIDs []string          // sorted
	members     map[string]member // every satellite and ground station, by ID
	sats        []topo.SatSpec    // every satellite, by provider then config order
	fleet       []handover.Sat    // sats as the handover predictor reads them
	stations    []*ground.Station // every ground station, by provider then ID
	latency     routing.CostFunc  // route's cost: propagation plus per-hop processing

	te      *topo.TimeExpanded // intact geometry
	mask    *faults.Mask       // installed fault mask, nil for none
	flowSeq uint64
}

// member is one satellite or ground station of the federation's
// directory. Exactly one of sat and station is set.
type member struct {
	owner   string
	sat     *topo.SatSpec
	station *ground.Station
}

// NewNetwork federates the configured providers: every provider gets an
// authentication server, a ledger and its ground stations, and all
// providers exchange certificate trust anchors (the out-of-band onboarding
// step of joining OpenSpace).
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:       cfg,
		providers: make(map[string]*Provider),
		users:     make(map[string]*User),
		rng:       exec.DomainRNG(cfg.Seed, domainNetwork),
		members:   make(map[string]member),
		latency:   routing.LatencyCost(cfg.PerHopProcessingS),
	}
	for _, pc := range cfg.Providers {
		a, err := auth.NewAuthenticator(pc.ID, cfg.CertTTLS, n.rng)
		if err != nil {
			return nil, fmt.Errorf("core: provider %q: %w", pc.ID, err)
		}
		p := &Provider{
			ID:            pc.ID,
			CarriagePerGB: pc.CarriagePerGB,
			Auth:          a,
			Trust:         auth.NewTrustStore(),
			Ledger:        economics.NewLedger(pc.ID),
			Stations:      make(map[string]*ground.Station),
			Satellites:    pc.Satellites,
		}
		for _, gc := range pc.GroundStations {
			st, err := ground.NewStation(gc.ID, pc.ID, gc.Pos, gc.BackhaulBps, gc.PricePerGB, gc.VisitorSurge)
			if err != nil {
				return nil, fmt.Errorf("core: station %q: %w", gc.ID, err)
			}
			p.Stations[gc.ID] = st
		}
		n.providers[pc.ID] = p
	}
	// The directory: Validate guarantees every node ID is unique.
	n.providerIDs = sortedKeys(n.providers)
	for _, pid := range n.providerIDs {
		p := n.providers[pid]
		for _, s := range p.Satellites {
			n.sats = append(n.sats, topo.SatSpec{ID: s.ID, Provider: pid, Elements: s.Elements, HasLaser: s.HasLaser, MaxISLs: s.MaxISLs})
			n.fleet = append(n.fleet, handover.Sat{ID: s.ID, Provider: pid, Elements: s.Elements})
		}
		for _, id := range sortedKeys(p.Stations) {
			n.stations = append(n.stations, p.Stations[id])
			n.members[id] = member{owner: pid, station: p.Stations[id]}
		}
	}
	for i := range n.sats {
		n.members[n.sats[i].ID] = member{owner: n.sats[i].Provider, sat: &n.sats[i]}
	}
	// Trust anchor exchange: everyone trusts everyone's certificates.
	for _, p := range n.providers {
		for _, q := range n.providers {
			p.Trust.Add(q.ID, q.Auth.PublicKey())
		}
	}
	return n, nil
}

// Provider returns a member by ID, or nil.
func (n *Network) Provider(id string) *Provider { return n.providers[id] }

// Providers returns member IDs in sorted order.
func (n *Network) Providers() []string { return slices.Clone(n.providerIDs) }

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AddUser enrolls a subscriber with their home ISP and creates the terminal.
func (n *Network) AddUser(userID, homeISP string, pos geo.LatLon) (*User, error) {
	p, ok := n.providers[homeISP]
	if !ok {
		return nil, fmt.Errorf("core: unknown home ISP %q", homeISP)
	}
	if _, exists := n.users[userID]; exists {
		return nil, fmt.Errorf("core: duplicate user %q", userID)
	}
	// Users share the topology's node namespace with satellites and ground
	// stations, and a snapshot needs every node ID to be unique.
	if m, taken := n.members[userID]; taken {
		kind := "satellite"
		if m.station != nil {
			kind = "ground-station"
		}
		return nil, fmt.Errorf("core: user ID %q is already a %s ID", userID, kind)
	}
	secret := make([]byte, 32)
	if _, err := n.rng.Read(secret); err != nil {
		return nil, fmt.Errorf("core: generating secret: %w", err)
	}
	if err := p.Auth.Enroll(userID, secret); err != nil {
		return nil, err
	}
	term, err := assoc.NewTerminal(userID, secret, pos, n.cfg.Topo.MinElevationDeg)
	if err != nil {
		return nil, err
	}
	u := &User{ID: userID, HomeISP: homeISP, Pos: pos, Terminal: term}
	n.users[userID] = u
	return u, nil
}

// User returns a subscriber by ID, or nil.
func (n *Network) User(id string) *User { return n.users[id] }

// groundSpecs lists every ground station as a topology input, in
// n.stations order.
func (n *Network) groundSpecs() []topo.GroundSpec {
	specs := make([]topo.GroundSpec, len(n.stations))
	for i, st := range n.stations {
		specs[i] = topo.GroundSpec{ID: st.ID, Provider: st.Provider, Pos: st.Pos}
	}
	return specs
}

func (n *Network) userSpecs() []topo.UserSpec {
	ids := sortedKeys(n.users)
	specs := make([]topo.UserSpec, len(ids))
	for i, id := range ids {
		u := n.users[id]
		specs[i] = topo.UserSpec{ID: id, Provider: u.HomeISP, Pos: u.Pos}
	}
	return specs
}

// BuildTopology precomputes the shared public topology over
// [startS, startS+horizonS] at the given snapshot cadence, with no fault
// mask installed. Must be called after all users are added and before
// Associate/Send.
func (n *Network) BuildTopology(startS, horizonS, intervalS float64) error {
	te, err := topo.BuildTimeExpanded(startS, horizonS, intervalS, n.cfg.Topo,
		n.sats, n.groundSpecs(), n.userSpecs())
	if err != nil {
		return err
	}
	n.te, n.mask = te, nil
	return nil
}

// Topology returns the built time-expanded topology, without any fault
// overlay; nil before BuildTopology.
func (n *Network) Topology() *topo.TimeExpanded { return n.te }

// Associate runs the full association for a user at time t: beacon scan
// over the satellites visible in the current snapshot, selection of the
// closest, and the RADIUS exchange with the user's home ISP, which issues
// the roaming certificate. The serving provider verifies the certificate
// against its trust store before traffic flows.
func (n *Network) Associate(userID string, t float64) error {
	u, ok := n.users[userID]
	if !ok {
		return fmt.Errorf("core: unknown user %q", userID)
	}
	if n.te == nil {
		return errors.New("core: BuildTopology must run before Associate")
	}
	home := n.providers[u.HomeISP]

	// Beacon scan: every satellite with an access edge to the user in the
	// current snapshot is audible.
	snap := n.snapshotAt(t)
	u.Terminal.StartScan()
	for _, e := range snap.Neighbors(userID) {
		sc := n.members[snap.NodeAt(e.To).ID].sat
		if sc == nil {
			continue
		}
		u.Terminal.OnBeacon(&assoc.Beacon{
			SatelliteID: sc.ID,
			ProviderID:  sc.Provider,
			Orbit:       sc.Elements,
		})
	}

	req, err := u.Terminal.SelectAndRequestAuth(t, n.rng.Uint64())
	if err != nil {
		return fmt.Errorf("core: user %q association: %w", userID, err)
	}
	nonce, err := home.Auth.Challenge(req.UserID)
	if err != nil {
		return err
	}
	resp, err := u.Terminal.OnChallenge(&assoc.AuthChallenge{ServerNonce: nonce})
	if err != nil {
		return err
	}
	cert, err := home.Auth.VerifyProof(req.UserID, req.ClientNonce, resp.Proof, t)
	if err != nil {
		u.Terminal.OnResult(&assoc.AuthResult{Success: false, Reason: err.Error()})
		return fmt.Errorf("core: user %q auth: %w", userID, err)
	}
	if err := u.Terminal.OnResult(&assoc.AuthResult{Success: true, Certificate: cert}); err != nil {
		return err
	}
	// The serving provider independently verifies the roaming certificate.
	_, servingProvider := u.Terminal.Serving()
	if sp := n.providers[servingProvider]; sp != nil {
		if err := sp.Trust.Verify(cert, t); err != nil {
			return fmt.Errorf("core: serving provider rejected certificate: %w", err)
		}
	}
	return nil
}
