package economics

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// Receipt verification errors.
var (
	ErrReceiptSig  = errors.New("economics: receipt signature invalid")
	ErrReceiptKey  = errors.New("economics: no key for carrier")
	ErrChainBroken = errors.New("economics: receipt chain inconsistent")
	ErrChainEmpty  = errors.New("economics: empty receipt chain")
)

// Verify checks the receipt against the carrier's public key.
func (r *Receipt) Verify(key ed25519.PublicKey) error {
	if !ed25519.Verify(key, r.signedBytes(), r.Sig) {
		return fmt.Errorf("%w: carrier %q hop %d", ErrReceiptSig, r.Carrier, r.HopIndex)
	}
	return nil
}

// VerifyChain, the auditor's side of SignWith, validates a flow's
// complete receipt chain: every signature verifies against its carrier's
// key, all receipts agree on flow, customer and bytes, and hop indices
// are 0..n-1 in order.
func VerifyChain(chain []Receipt, keys map[string]ed25519.PublicKey) error {
	if len(chain) == 0 {
		return ErrChainEmpty
	}
	first := chain[0]
	for i, r := range chain {
		key, ok := keys[r.Carrier]
		if !ok {
			return fmt.Errorf("%w: %q", ErrReceiptKey, r.Carrier)
		}
		if err := r.Verify(key); err != nil {
			return err
		}
		if r.FlowID != first.FlowID || r.Customer != first.Customer || r.Bytes != first.Bytes {
			return fmt.Errorf("%w: receipt %d diverges", ErrChainBroken, i)
		}
		if r.HopIndex != i {
			return fmt.Errorf("%w: hop %d at position %d", ErrChainBroken, r.HopIndex, i)
		}
	}
	return nil
}

// signerFor returns a keypair and a SignWith-compatible closure.
func signerFor(t *testing.T, seed int64) (ed25519.PublicKey, func([]byte) []byte) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pub, func(msg []byte) []byte { return ed25519.Sign(priv, msg) }
}

// testChain builds a signed 3-hop chain a→b→a and the key map.
func testChain(t *testing.T) ([]Receipt, map[string]ed25519.PublicKey) {
	t.Helper()
	pubA, signA := signerFor(t, 1)
	pubB, signB := signerFor(t, 2)
	keys := map[string]ed25519.PublicKey{"a": pubA, "b": pubB}
	chain := []Receipt{
		{Carrier: "a", Customer: "home", FlowID: 9, HopIndex: 0, Bytes: 500, AtS: 10},
		{Carrier: "b", Customer: "home", FlowID: 9, HopIndex: 1, Bytes: 500, AtS: 10},
		{Carrier: "a", Customer: "home", FlowID: 9, HopIndex: 2, Bytes: 500, AtS: 10},
	}
	chain[0].SignWith(signA)
	chain[1].SignWith(signB)
	chain[2].SignWith(signA)
	return chain, keys
}

func TestVerifyChainValid(t *testing.T) {
	chain, keys := testChain(t)
	if err := VerifyChain(chain, keys); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestVerifyChainErrors(t *testing.T) {
	chain, keys := testChain(t)

	if err := VerifyChain(nil, keys); !errors.Is(err, ErrChainEmpty) {
		t.Errorf("empty chain: %v", err)
	}
	// Unknown carrier key.
	mutated := append([]Receipt(nil), chain...)
	mutated[1].Carrier = "stranger"
	if err := VerifyChain(mutated, keys); !errors.Is(err, ErrReceiptKey) {
		t.Errorf("unknown carrier: %v", err)
	}
	// Tampered bytes → signature fails.
	mutated = append([]Receipt(nil), chain...)
	mutated[1].Bytes = 9999
	if err := VerifyChain(mutated, keys); !errors.Is(err, ErrReceiptSig) {
		t.Errorf("tampered bytes: %v", err)
	}
	// Hop gap.
	if err := VerifyChain([]Receipt{chain[0], chain[2]}, keys); !errors.Is(err, ErrChainBroken) {
		t.Errorf("hop gap: %v", err)
	}
	// Diverging flow ID: re-sign so the signature is valid but the chain
	// inconsistent.
	_, signB := signerFor(t, 2)
	mutated = append([]Receipt(nil), chain...)
	mutated[1].FlowID = 10
	mutated[1].SignWith(signB)
	if err := VerifyChain(mutated, keys); !errors.Is(err, ErrChainBroken) {
		t.Errorf("flow divergence: %v", err)
	}
}

func TestReceiptForgeryRejected(t *testing.T) {
	// A carrier cannot fabricate a receipt with another carrier's name:
	// signing with its own key fails verification against the named
	// carrier's key.
	pubA, _ := signerFor(t, 1)
	_, signEvil := signerFor(t, 3)
	r := Receipt{Carrier: "a", Customer: "home", FlowID: 1, HopIndex: 0, Bytes: 100}
	r.SignWith(signEvil)
	if err := r.Verify(pubA); !errors.Is(err, ErrReceiptSig) {
		t.Errorf("forged receipt: %v", err)
	}
}
