// Package assoc implements user association (§2.2 of the paper): a ground
// user terminal listens for the standardized beacons all OpenSpace
// satellites broadcast, evaluates them "to identify which satellite is in
// closest range", requests association, and authenticates with its home ISP
// through the serving satellite's ISLs (RADIUS-style; see internal/auth).
// On success the home ISP's roaming certificate is retained so later
// handovers and visited providers need no re-authentication.
//
// The Terminal type is the user side as an explicit state machine driven by
// typed messages (messages.go) and times, so simulations can interleave many
// terminals deterministically.
package assoc

import (
	"errors"
	"fmt"
	"sort"

	"github.com/openspace-project/openspace/internal/auth"
	"github.com/openspace-project/openspace/internal/geo"
)

// State is the terminal's association state.
type State int

// Association states.
const (
	StateIdle State = iota
	StateScanning
	StateAuthenticating
	StateAssociated
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateScanning:
		return "scanning"
	case StateAuthenticating:
		return "authenticating"
	case StateAssociated:
		return "associated"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors returned by the state machine.
var (
	ErrWrongState = errors.New("assoc: operation invalid in current state")
	ErrNoBeacons  = errors.New("assoc: no usable beacons heard")
	ErrAuthFailed = errors.New("assoc: authentication failed")
)

// Candidate is one evaluated beacon.
type Candidate struct {
	SatelliteID string
	ProviderID  string
	RangeKm     float64
	Elevation   float64
	Load        float64
}

// Terminal is a ground user terminal.
type Terminal struct {
	userID  string
	secret  []byte
	pos     geo.LatLon
	minElev float64

	state    State
	heard    map[string]Beacon
	serving  string
	provider string
	cert     *auth.Certificate
	nonce    uint64
}

// NewTerminal creates a terminal for the subscriber userID.
func NewTerminal(userID string, secret []byte, pos geo.LatLon, minElevationDeg float64) (*Terminal, error) {
	if userID == "" {
		return nil, errors.New("assoc: user ID required")
	}
	if len(secret) == 0 {
		return nil, errors.New("assoc: shared secret required")
	}
	if !pos.Valid() {
		return nil, fmt.Errorf("assoc: invalid position %v", pos)
	}
	return &Terminal{
		userID: userID, secret: secret,
		pos: pos, minElev: minElevationDeg,
		heard: make(map[string]Beacon),
	}, nil
}

// State returns the current association state.
func (t *Terminal) State() State { return t.state }

// Serving returns the currently associated satellite and its provider
// (empty strings when not associated).
func (t *Terminal) Serving() (satellite, provider string) { return t.serving, t.provider }

// StartScan begins beacon collection, discarding previous sightings.
func (t *Terminal) StartScan() {
	t.heard = make(map[string]Beacon)
	t.state = StateScanning
}

// OnBeacon records a beacon while scanning; in other states beacons are
// stored only for bookkeeping (e.g. successor lookups).
func (t *Terminal) OnBeacon(b *Beacon) {
	t.heard[b.SatelliteID] = *b
}

// Candidates evaluates the heard beacons at time now and returns the
// satellites visible above the terminal's elevation mask, sorted by range
// (closest first; ties by load, then ID for determinism).
func (t *Terminal) Candidates(now float64) []Candidate {
	var cs []Candidate
	for _, b := range t.heard {
		pos := b.Orbit.PositionECEF(now)
		elev := geo.ElevationDeg(t.pos, pos)
		if elev < t.minElev {
			continue
		}
		cs = append(cs, Candidate{
			SatelliteID: b.SatelliteID,
			ProviderID:  b.ProviderID,
			RangeKm:     pos.DistanceKm(t.pos.Vec3(0)),
			Elevation:   elev,
			Load:        b.LoadFraction,
		})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].RangeKm != cs[j].RangeKm { //lint:allow floateq exact sort tie-break keeps candidate order deterministic
			return cs[i].RangeKm < cs[j].RangeKm
		}
		if cs[i].Load != cs[j].Load { //lint:allow floateq exact sort tie-break keeps candidate order deterministic
			return cs[i].Load < cs[j].Load
		}
		return cs[i].SatelliteID < cs[j].SatelliteID
	})
	return cs
}

// SelectAndRequestAuth picks the best candidate and emits the AuthRequest
// to relay to the home ISP. clientNonce must be fresh per attempt.
func (t *Terminal) SelectAndRequestAuth(now float64, clientNonce uint64) (*AuthRequest, error) {
	if t.state != StateScanning {
		return nil, fmt.Errorf("%w: %v", ErrWrongState, t.state)
	}
	cs := t.Candidates(now)
	if len(cs) == 0 {
		return nil, ErrNoBeacons
	}
	best := cs[0]
	t.serving = best.SatelliteID
	t.provider = best.ProviderID
	t.nonce = clientNonce
	t.state = StateAuthenticating
	return &AuthRequest{UserID: t.userID, ClientNonce: clientNonce}, nil
}

// OnChallenge answers the home ISP's challenge with the HMAC proof.
func (t *Terminal) OnChallenge(c *AuthChallenge) (*AuthResponse, error) {
	if t.state != StateAuthenticating {
		return nil, fmt.Errorf("%w: %v", ErrWrongState, t.state)
	}
	return &AuthResponse{Proof: auth.Proof(t.secret, t.nonce, c.ServerNonce)}, nil
}

// OnResult completes association. On success the terminal stores the
// roaming certificate and becomes associated with the selected satellite.
func (t *Terminal) OnResult(r *AuthResult) error {
	if t.state != StateAuthenticating {
		return fmt.Errorf("%w: %v", ErrWrongState, t.state)
	}
	if !r.Success {
		t.state = StateIdle
		t.serving, t.provider = "", ""
		return fmt.Errorf("%w: %s", ErrAuthFailed, r.Reason)
	}
	t.cert = r.Certificate
	t.state = StateAssociated
	return nil
}

// SwitchTo retargets an associated terminal to a successor satellite
// without re-authentication — the handover fast path (§2.2): "this
// eliminates the need to run authentication and association protocols
// again".
func (t *Terminal) SwitchTo(satelliteID, providerID string) error {
	if t.state != StateAssociated {
		return fmt.Errorf("%w: %v", ErrWrongState, t.state)
	}
	t.serving = satelliteID
	t.provider = providerID
	return nil
}

// Dropped records loss of the serving link — the serving satellite failed
// or its access link went away. The terminal returns to idle and must run
// association again; the roaming certificate (still valid until expiry) is
// refreshed by the next association rather than discarded here.
func (t *Terminal) Dropped() {
	t.state = StateIdle
	t.serving, t.provider = "", ""
	t.heard = make(map[string]Beacon)
}
