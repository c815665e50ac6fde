// Package auth implements OpenSpace's user authentication (§2.2 of the
// paper): a RADIUS-style shared-secret challenge/response between a user and
// their home ISP, relayed over ISLs by the serving satellite, followed by the
// issuance of a digital roaming certificate — the home provider's signed
// statement that the user has been authenticated, which any other provider
// can verify offline. That certificate is what lets OpenSpace's rampant
// "roaming" (users served by satellites their ISP does not own) avoid a
// round trip to the home ISP on every association.
//
// Cryptography is stdlib only: HMAC-SHA256 for the challenge proof and
// Ed25519 for certificate signatures.
package auth

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Authentication errors.
var (
	ErrUnknownUser   = errors.New("auth: unknown user")
	ErrBadProof      = errors.New("auth: challenge proof mismatch")
	ErrNoChallenge   = errors.New("auth: no outstanding challenge for user")
	ErrUnknownIssuer = errors.New("auth: certificate issuer not trusted")
	ErrBadSignature  = errors.New("auth: certificate signature invalid")
	ErrExpired       = errors.New("auth: certificate expired")
	ErrNotYetValid   = errors.New("auth: certificate not yet valid")
)

// Proof computes the challenge/response proof: HMAC-SHA256 keyed with the
// user's shared secret over both nonces. Both the user terminal and the home
// ISP compute this; the exchange succeeds when they match.
func Proof(secret []byte, clientNonce, serverNonce uint64) []byte {
	mac := hmac.New(sha256.New, secret)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], clientNonce)
	binary.LittleEndian.PutUint64(buf[8:16], serverNonce)
	mac.Write(buf[:]) //lint:allow errdrop hash.Hash.Write is documented to never return an error
	return mac.Sum(nil)
}

// Authenticator is a home ISP's authentication server. It holds the shared
// secrets of the provider's subscribers and the provider's certificate
// signing key. Safe for concurrent use.
type Authenticator struct {
	providerID string
	signKey    ed25519.PrivateKey
	certTTLS   float64

	mu         sync.Mutex
	secrets    map[string][]byte // userID → shared secret
	challenges map[string]uint64 // userID → outstanding server nonce
	nonceSrc   io.Reader
}

// NewAuthenticator creates the authentication server for providerID.
// certTTLS is the validity window of issued certificates in seconds.
// random supplies nonces and the signing key; pass a deterministic reader in
// simulations for reproducibility.
func NewAuthenticator(providerID string, certTTLS float64, random io.Reader) (*Authenticator, error) {
	if providerID == "" {
		return nil, errors.New("auth: provider ID must be non-empty")
	}
	if len(providerID) > maxIDLen {
		return nil, fmt.Errorf("auth: provider ID of %d bytes is longer than the %d a certificate carries", len(providerID), maxIDLen)
	}
	if certTTLS <= 0 {
		return nil, fmt.Errorf("auth: certificate TTL %.1f must be positive", certTTLS)
	}
	_, priv, err := ed25519.GenerateKey(random)
	if err != nil {
		return nil, fmt.Errorf("auth: generating signing key: %w", err)
	}
	return &Authenticator{
		providerID: providerID,
		signKey:    priv,
		certTTLS:   certTTLS,
		secrets:    make(map[string][]byte),
		challenges: make(map[string]uint64),
		nonceSrc:   random,
	}, nil
}

// PublicKey returns the provider's certificate verification key. Providers
// exchange these out of band when joining OpenSpace (part of the standards
// onboarding the paper describes).
func (a *Authenticator) PublicKey() ed25519.PublicKey {
	return a.signKey.Public().(ed25519.PublicKey)
}

// Sign signs an arbitrary message with the provider's key — used for
// carriage receipts (economics) and misbehaviour reports (security), which
// verify against the same PublicKey providers already exchange.
func (a *Authenticator) Sign(msg []byte) []byte {
	return ed25519.Sign(a.signKey, msg)
}

// Enroll registers a subscriber and their shared secret.
func (a *Authenticator) Enroll(userID string, secret []byte) error {
	if userID == "" || len(secret) == 0 {
		return errors.New("auth: enroll requires user ID and secret")
	}
	if len(userID) > maxIDLen {
		return fmt.Errorf("auth: provider %q: user ID of %d bytes is longer than the %d a certificate carries", a.providerID, len(userID), maxIDLen)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.secrets[userID] = append([]byte(nil), secret...)
	return nil
}

// Challenge starts an authentication exchange for userID and returns the
// server nonce to send back in an AuthChallenge message.
func (a *Authenticator) Challenge(userID string) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.secrets[userID]; !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	var buf [8]byte
	if _, err := io.ReadFull(a.nonceSrc, buf[:]); err != nil {
		return 0, fmt.Errorf("auth: drawing nonce: %w", err)
	}
	nonce := binary.LittleEndian.Uint64(buf[:])
	a.challenges[userID] = nonce
	return nonce, nil
}

// VerifyProof checks a user's challenge response. On success it consumes
// the outstanding challenge and issues a roaming certificate valid from
// nowS for the configured TTL.
func (a *Authenticator) VerifyProof(userID string, clientNonce uint64, proof []byte, nowS float64) (*Certificate, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	secret, ok := a.secrets[userID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	serverNonce, ok := a.challenges[userID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoChallenge, userID)
	}
	want := Proof(secret, clientNonce, serverNonce)
	if !hmac.Equal(want, proof) {
		return nil, fmt.Errorf("%w: user %q", ErrBadProof, userID)
	}
	delete(a.challenges, userID) // single use
	cert := &Certificate{
		UserID:     userID,
		Issuer:     a.providerID,
		IssuedAtS:  nowS,
		ExpiresAtS: nowS + a.certTTLS,
	}
	cert.Signature = ed25519.Sign(a.signKey, cert.signedBytes())
	return cert, nil
}

// TrustStore maps provider IDs to their certificate verification keys —
// the set of OpenSpace members a satellite trusts. Safe for concurrent use.
type TrustStore struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// NewTrustStore returns an empty trust store.
func NewTrustStore() *TrustStore {
	return &TrustStore{keys: make(map[string]ed25519.PublicKey)}
}

// Add registers a provider's verification key.
func (t *TrustStore) Add(providerID string, key ed25519.PublicKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys[providerID] = key
}

// Verify checks a certificate's issuer trust, signature and validity window
// at time nowS.
func (t *TrustStore) Verify(c *Certificate, nowS float64) error {
	t.mu.RLock()
	key, ok := t.keys[c.Issuer]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownIssuer, c.Issuer)
	}
	if !ed25519.Verify(key, c.signedBytes(), c.Signature) {
		return ErrBadSignature
	}
	if nowS < c.IssuedAtS {
		return ErrNotYetValid
	}
	if nowS > c.ExpiresAtS {
		return ErrExpired
	}
	return nil
}
