package frame

import (
	"encoding/binary"
)

// Capability is the bitmask of link technologies a satellite supports.
// RF is mandatory in OpenSpace (§2.1); laser is the optional upgrade.
type Capability uint16

// Capability bits.
const (
	CapRF Capability = 1 << iota
	CapLaser
	CapGroundKu
	CapGroundKa
)

// Has reports whether all bits of want are set.
func (c Capability) Has(want Capability) bool { return c&want == want }

// OrbitalState is the compact orbital element set carried in beacons so any
// receiver can propagate the sender's trajectory — the paper's
// "standardized periodic beacons that include orbital information" (§2.2).
type OrbitalState struct {
	SemiMajorAxisKm float64
	Eccentricity    float64
	InclinationDeg  float64
	RAANDeg         float64
	ArgPerigeeDeg   float64
	MeanAnomalyDeg  float64
	EpochS          float64 // seconds since the shared network epoch
}

func appendOrbital(b []byte, o OrbitalState) []byte {
	b = appendF64(b, o.SemiMajorAxisKm)
	b = appendF64(b, o.Eccentricity)
	b = appendF64(b, o.InclinationDeg)
	b = appendF64(b, o.RAANDeg)
	b = appendF64(b, o.ArgPerigeeDeg)
	b = appendF64(b, o.MeanAnomalyDeg)
	b = appendF64(b, o.EpochS)
	return b
}

func (r *reader) orbital() OrbitalState {
	return OrbitalState{
		SemiMajorAxisKm: r.f64(),
		Eccentricity:    r.f64(),
		InclinationDeg:  r.f64(),
		RAANDeg:         r.f64(),
		ArgPerigeeDeg:   r.f64(),
		MeanAnomalyDeg:  r.f64(),
		EpochS:          r.f64(),
	}
}

// Beacon is the periodic presence broadcast every OpenSpace satellite emits
// over its omnidirectional RF antenna. Ground users select their access
// satellite from the beacons they hear (assoc), and receivers that enforce
// beacon authentication check its AuthTag (security).
type Beacon struct {
	SatelliteID  string
	ProviderID   string
	Caps         Capability
	Orbit        OrbitalState
	LoadFraction float64 // 0..1 current utilisation, for load-aware selection
	SentAtS      float64 // transmission time, seconds since epoch
	// AuthTag is the owning provider's Ed25519 signature over the beacon's
	// other fields (see security.SignBeacon). Empty on unsigned beacons;
	// receivers that enforce beacon authentication reject those.
	AuthTag []byte
}

// FrameType implements Frame.
func (*Beacon) FrameType() Type { return TypeBeacon }

func (f *Beacon) appendPayload(b []byte) []byte {
	b = appendString(b, f.SatelliteID)
	b = appendString(b, f.ProviderID)
	b = binary.LittleEndian.AppendUint16(b, uint16(f.Caps))
	b = appendOrbital(b, f.Orbit)
	b = appendF64(b, f.LoadFraction)
	b = appendF64(b, f.SentAtS)
	b = appendBytes(b, f.AuthTag)
	return b
}

func (f *Beacon) decodePayload(p []byte) error {
	r := &reader{b: p}
	f.SatelliteID = r.str()
	f.ProviderID = r.str()
	f.Caps = Capability(r.u16())
	f.Orbit = r.orbital()
	f.LoadFraction = r.f64()
	f.SentAtS = r.f64()
	f.AuthTag = r.bytes()
	return r.done()
}

// AuthRequest opens the RADIUS-style authentication of a user with their
// home ISP (§2.2), relayed over ISLs by whichever satellite the user
// associated with.
type AuthRequest struct {
	UserID      string
	HomeISP     string
	ViaSatID    string // satellite relaying the request
	ClientNonce uint64
}

// FrameType implements Frame.
func (*AuthRequest) FrameType() Type { return TypeAuthRequest }

func (f *AuthRequest) appendPayload(b []byte) []byte {
	b = appendString(b, f.UserID)
	b = appendString(b, f.HomeISP)
	b = appendString(b, f.ViaSatID)
	b = binary.LittleEndian.AppendUint64(b, f.ClientNonce)
	return b
}

func (f *AuthRequest) decodePayload(p []byte) error {
	r := &reader{b: p}
	f.UserID = r.str()
	f.HomeISP = r.str()
	f.ViaSatID = r.str()
	f.ClientNonce = r.u64()
	return r.done()
}

// AuthChallenge is the home ISP's challenge nonce.
type AuthChallenge struct {
	UserID      string
	ServerNonce uint64
}

// FrameType implements Frame.
func (*AuthChallenge) FrameType() Type { return TypeAuthChallenge }

func (f *AuthChallenge) appendPayload(b []byte) []byte {
	b = appendString(b, f.UserID)
	b = binary.LittleEndian.AppendUint64(b, f.ServerNonce)
	return b
}

func (f *AuthChallenge) decodePayload(p []byte) error {
	r := &reader{b: p}
	f.UserID = r.str()
	f.ServerNonce = r.u64()
	return r.done()
}

// AuthResponse carries the user's proof of possession of the shared secret:
// HMAC-SHA256 over both nonces (computed in internal/auth).
type AuthResponse struct {
	UserID string
	Proof  []byte
}

// FrameType implements Frame.
func (*AuthResponse) FrameType() Type { return TypeAuthResponse }

func (f *AuthResponse) appendPayload(b []byte) []byte {
	b = appendString(b, f.UserID)
	b = appendBytes(b, f.Proof)
	return b
}

func (f *AuthResponse) decodePayload(p []byte) error {
	r := &reader{b: p}
	f.UserID = r.str()
	f.Proof = r.bytes()
	return r.done()
}

// AuthResult closes the exchange. On success it carries the roaming
// certificate the home ISP issues so other providers can verify the user
// was authenticated without contacting the home ISP again (§2.2).
type AuthResult struct {
	UserID      string
	Success     bool
	Certificate []byte // serialised auth.Certificate
	Reason      string // populated on failure
}

// FrameType implements Frame.
func (*AuthResult) FrameType() Type { return TypeAuthResult }

func (f *AuthResult) appendPayload(b []byte) []byte {
	b = appendString(b, f.UserID)
	b = appendBool(b, f.Success)
	b = appendBytes(b, f.Certificate)
	b = appendString(b, f.Reason)
	return b
}

func (f *AuthResult) decodePayload(p []byte) error {
	r := &reader{b: p}
	f.UserID = r.str()
	f.Success = r.bool()
	f.Certificate = r.bytes()
	f.Reason = r.str()
	return r.done()
}
