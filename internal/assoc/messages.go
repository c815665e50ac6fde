package assoc

import (
	"github.com/openspace-project/openspace/internal/auth"
	"github.com/openspace-project/openspace/internal/orbit"
)

// Beacon is the periodic presence broadcast every OpenSpace satellite emits
// over its omnidirectional RF antenna: the paper's "standardized periodic
// beacons that include orbital information" (§2.2), from which a terminal
// propagates the sender's position and picks its access satellite.
type Beacon struct {
	SatelliteID  string
	ProviderID   string
	Orbit        orbit.Elements
	LoadFraction float64 // 0..1 current utilisation, for load-aware selection
}

// AuthRequest opens the RADIUS-style authentication of a user with their
// home ISP (§2.2), relayed over ISLs by whichever satellite the user
// associated with.
type AuthRequest struct {
	UserID      string
	ClientNonce uint64
}

// AuthChallenge is the home ISP's challenge nonce.
type AuthChallenge struct {
	ServerNonce uint64
}

// AuthResponse carries the user's proof of possession of the shared secret:
// HMAC-SHA256 over both nonces (computed in internal/auth).
type AuthResponse struct {
	Proof []byte
}

// AuthResult closes the exchange. On success it carries the roaming
// certificate the home ISP issues so other providers can verify the user
// was authenticated without contacting the home ISP again (§2.2).
type AuthResult struct {
	Success     bool
	Certificate *auth.Certificate
	Reason      string // populated on failure
}
