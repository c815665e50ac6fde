package auth

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// testRand returns a deterministic byte stream for reproducible keys/nonces.
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newTestAuthenticator(tb testing.TB, provider string) *Authenticator {
	tb.Helper()
	a, err := NewAuthenticator(provider, 3600, testRand(1))
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// issue runs the challenge exchange for an enrolled user and returns the
// certificate the home ISP issues.
func issue(tb testing.TB, a *Authenticator, userID string, secret []byte) *Certificate {
	tb.Helper()
	nonce, err := a.Challenge(userID)
	if err != nil {
		tb.Fatal(err)
	}
	cert, err := a.VerifyProof(userID, 3, Proof(secret, 3, nonce), 50)
	if err != nil {
		tb.Fatal(err)
	}
	return cert
}

func TestNewAuthenticatorValidation(t *testing.T) {
	if _, err := NewAuthenticator("", 3600, testRand(1)); err == nil {
		t.Error("empty provider should fail")
	}
	if _, err := NewAuthenticator("acme", 0, testRand(1)); err == nil {
		t.Error("zero TTL should fail")
	}
	if _, err := NewAuthenticator("acme", -5, testRand(1)); err == nil {
		t.Error("negative TTL should fail")
	}
	if _, err := NewAuthenticator(strings.Repeat("p", math.MaxUint16+1), 3600, testRand(1)); err == nil {
		t.Error("provider ID longer than a certificate carries should fail")
	}
}

func TestEnrollValidation(t *testing.T) {
	a := newTestAuthenticator(t, "acme")
	if err := a.Enroll("", []byte("s")); err == nil {
		t.Error("empty user should fail")
	}
	if err := a.Enroll("u", nil); err == nil {
		t.Error("empty secret should fail")
	}
	if err := a.Enroll("u", []byte("s")); err != nil {
		t.Errorf("valid enroll failed: %v", err)
	}
	long := strings.Repeat("u", math.MaxUint16+1)
	if err := a.Enroll(long, []byte("s")); err == nil {
		t.Error("user ID longer than a certificate carries should fail")
	}
	// The longest accepted ID can still roam: its certificate survives
	// transport.
	edge := long[:math.MaxUint16]
	if err := a.Enroll(edge, []byte("s")); err != nil {
		t.Fatalf("enrolling a %d-byte ID: %v", len(edge), err)
	}
	cert := issue(t, a, edge, []byte("s"))
	if got, err := UnmarshalCertificate(cert.Marshal()); err != nil || got.UserID != edge {
		t.Errorf("certificate for a %d-byte ID does not survive transport: %v", len(edge), err)
	}
	ts := NewTrustStore()
	ts.Add("acme", a.PublicKey())
	if err := ts.Verify(cert, 60); err != nil {
		t.Errorf("certificate for a %d-byte ID does not verify: %v", len(edge), err)
	}
}

func TestFullExchange(t *testing.T) {
	a := newTestAuthenticator(t, "acme")
	secret := []byte("user-17-secret")
	if err := a.Enroll("user-17", secret); err != nil {
		t.Fatal(err)
	}

	const clientNonce = 0xABCD
	serverNonce, err := a.Challenge("user-17")
	if err != nil {
		t.Fatal(err)
	}
	proof := Proof(secret, clientNonce, serverNonce)
	cert, err := a.VerifyProof("user-17", clientNonce, proof, 100)
	if err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if cert.UserID != "user-17" || cert.Issuer != "acme" {
		t.Errorf("cert fields wrong: %v", cert)
	}
	if cert.IssuedAtS != 100 || cert.ExpiresAtS != 3700 {
		t.Errorf("cert validity wrong: %v", cert)
	}

	// Verified by a visited provider that trusts acme.
	ts := NewTrustStore()
	ts.Add("acme", a.PublicKey())
	if err := ts.Verify(cert, 200); err != nil {
		t.Errorf("trusted cert rejected: %v", err)
	}
}

func TestChallengeUnknownUser(t *testing.T) {
	a := newTestAuthenticator(t, "acme")
	if _, err := a.Challenge("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("got %v, want ErrUnknownUser", err)
	}
	if _, err := a.VerifyProof("ghost", 1, nil, 0); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("got %v, want ErrUnknownUser", err)
	}
}

func TestVerifyWithoutChallenge(t *testing.T) {
	a := newTestAuthenticator(t, "acme")
	a.Enroll("u", []byte("s"))
	if _, err := a.VerifyProof("u", 1, []byte("x"), 0); !errors.Is(err, ErrNoChallenge) {
		t.Errorf("got %v, want ErrNoChallenge", err)
	}
}

func TestWrongProofRejected(t *testing.T) {
	a := newTestAuthenticator(t, "acme")
	secret := []byte("right")
	a.Enroll("u", secret)
	serverNonce, err := a.Challenge("u")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong secret.
	bad := Proof([]byte("wrong"), 1, serverNonce)
	if _, err := a.VerifyProof("u", 1, bad, 0); !errors.Is(err, ErrBadProof) {
		t.Errorf("wrong secret: got %v, want ErrBadProof", err)
	}
	// Wrong client nonce binding.
	p := Proof(secret, 1, serverNonce)
	if _, err := a.VerifyProof("u", 2, p, 0); !errors.Is(err, ErrBadProof) {
		t.Errorf("nonce mismatch: got %v, want ErrBadProof", err)
	}
}

func TestChallengeSingleUse(t *testing.T) {
	a := newTestAuthenticator(t, "acme")
	secret := []byte("s")
	a.Enroll("u", secret)
	serverNonce, _ := a.Challenge("u")
	proof := Proof(secret, 7, serverNonce)
	if _, err := a.VerifyProof("u", 7, proof, 0); err != nil {
		t.Fatal(err)
	}
	// Replay must fail: challenge consumed.
	if _, err := a.VerifyProof("u", 7, proof, 0); !errors.Is(err, ErrNoChallenge) {
		t.Errorf("replay: got %v, want ErrNoChallenge", err)
	}
}

func TestTrustStoreVerifyErrors(t *testing.T) {
	a := newTestAuthenticator(t, "acme")
	secret := []byte("s")
	a.Enroll("u", secret)
	nonce, _ := a.Challenge("u")
	cert, err := a.VerifyProof("u", 3, Proof(secret, 3, nonce), 1000)
	if err != nil {
		t.Fatal(err)
	}

	ts := NewTrustStore()
	// Untrusted issuer.
	if err := ts.Verify(cert, 1000); !errors.Is(err, ErrUnknownIssuer) {
		t.Errorf("got %v, want ErrUnknownIssuer", err)
	}
	ts.Add("acme", a.PublicKey())
	// Valid.
	if err := ts.Verify(cert, 1000); err != nil {
		t.Errorf("valid cert: %v", err)
	}
	// Expired.
	if err := ts.Verify(cert, 1000+3601); !errors.Is(err, ErrExpired) {
		t.Errorf("got %v, want ErrExpired", err)
	}
	// Not yet valid.
	if err := ts.Verify(cert, 999); !errors.Is(err, ErrNotYetValid) {
		t.Errorf("got %v, want ErrNotYetValid", err)
	}
	// Tampered contents.
	forged := *cert
	forged.UserID = "other"
	if err := ts.Verify(&forged, 1000); !errors.Is(err, ErrBadSignature) {
		t.Errorf("forged user: got %v, want ErrBadSignature", err)
	}
	forged = *cert
	forged.ExpiresAtS += 999999
	if err := ts.Verify(&forged, 1000); !errors.Is(err, ErrBadSignature) {
		t.Errorf("extended validity: got %v, want ErrBadSignature", err)
	}
	// Signature from a different provider.
	b, err := NewAuthenticator("impostor", 3600, testRand(9))
	if err != nil {
		t.Fatal(err)
	}
	ts.Add("impostor", b.PublicKey())
	forged = *cert
	forged.Issuer = "impostor"
	if err := ts.Verify(&forged, 1000); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-provider: got %v, want ErrBadSignature", err)
	}
}

func TestProofDeterministicAndKeyed(t *testing.T) {
	p1 := Proof([]byte("k"), 1, 2)
	p2 := Proof([]byte("k"), 1, 2)
	if !bytes.Equal(p1, p2) {
		t.Error("proof not deterministic")
	}
	if bytes.Equal(p1, Proof([]byte("other"), 1, 2)) {
		t.Error("proof ignores key")
	}
	if bytes.Equal(p1, Proof([]byte("k"), 2, 2)) {
		t.Error("proof ignores client nonce")
	}
	if bytes.Equal(p1, Proof([]byte("k"), 1, 3)) {
		t.Error("proof ignores server nonce")
	}
	if len(p1) != 32 {
		t.Errorf("proof length %d, want 32 (SHA-256)", len(p1))
	}
}

func TestCertificateMarshalRoundTrip(t *testing.T) {
	f := func(user, issuer string, issued, expires float64, sig []byte) bool {
		if len(user) > 500 || len(issuer) > 500 || len(sig) > 500 {
			return true
		}
		in := &Certificate{
			UserID: user, Issuer: issuer,
			IssuedAtS: issued, ExpiresAtS: expires,
			Signature: sig,
		}
		out, err := UnmarshalCertificate(in.Marshal())
		if err != nil {
			return false
		}
		if len(in.Signature) == 0 && len(out.Signature) == 0 {
			in.Signature, out.Signature = nil, nil
		}
		return in.UserID == out.UserID && in.Issuer == out.Issuer &&
			eqFloat(in.IssuedAtS, out.IssuedAtS) && eqFloat(in.ExpiresAtS, out.ExpiresAtS) &&
			bytes.Equal(in.Signature, out.Signature)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// eqFloat compares floats bit-insensitively for NaN round trips.
func eqFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

func TestUnmarshalCertificateErrors(t *testing.T) {
	good := (&Certificate{UserID: "u", Issuer: "i", Signature: []byte("sig")}).Marshal()
	// Every truncation must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := UnmarshalCertificate(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// Trailing junk rejected.
	if _, err := UnmarshalCertificate(append(bytes.Clone(good), 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestVerifiedCertSurvivesTransport(t *testing.T) {
	// Marshal → unmarshal must preserve signature validity.
	a := newTestAuthenticator(t, "acme")
	secret := []byte("s")
	a.Enroll("u", secret)
	recovered, err := UnmarshalCertificate(issue(t, a, "u", secret).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore()
	ts.Add("acme", a.PublicKey())
	if err := ts.Verify(recovered, 60); err != nil {
		t.Errorf("transported cert rejected: %v", err)
	}
}
