// Package security implements the baseline security layer the paper's §5(6)
// calls for: "a common baseline encryption scheme and security protocol
// implemented by all satellites to ensure secure end-to-end handling of user
// data", plus "a security protocol to quickly identify and cut off bad
// actors in the network".
//
// Three pieces:
//
//   - Session: authenticated end-to-end encryption (AES-256-GCM with keys
//     derived from the user's shared secret) between a user terminal and its
//     home ISP's gateway, so relaying satellites — including other
//     providers' — carry only ciphertext. Interception or tampering by a
//     non-OpenSpace agent shows up as AEAD failure.
//   - Report: Ed25519-signed misbehaviour reports providers file against
//     each other (e.g. ledger fraud caught by economics.CrossVerify, or
//     traffic dropped by a relay).
//   - Registry: a quorum rule over verified reports — a provider accused by
//     enough distinct peers is quarantined, and the routing integration
//     excludes its infrastructure from new paths.
package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Session errors.
var (
	ErrReplay    = errors.New("security: replayed or reordered envelope")
	ErrTampered  = errors.New("security: authentication failed (tampered or wrong key)")
	ErrKeyLength = errors.New("security: master secret required")
)

// Envelope is one sealed message.
type Envelope struct {
	Seq        uint64 // strictly increasing per direction
	Ciphertext []byte // AES-GCM output (includes the tag)
}

// Session provides ordered, authenticated encryption in one direction.
// Create one per direction (user→home and home→user) from the same master
// secret with distinct labels. Not safe for concurrent use.
type Session struct {
	aead    cipher.AEAD
	sendSeq uint64
	recvSeq uint64 // highest sequence accepted so far
}

// DeriveKey expands a master secret and label into a 32-byte session key
// (HKDF-style single-block expand with HMAC-SHA256; one block suffices for
// a 32-byte output).
func DeriveKey(master []byte, label string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(label)) //lint:allow errdrop hash.Hash.Write is documented to never return an error
	mac.Write([]byte{1})     //lint:allow errdrop hash.Hash.Write is documented to never return an error
	return mac.Sum(nil)
}

// NewSession creates a session keyed by the master secret and direction
// label. Both ends derive the same key from the shared secret established
// at subscription time — no key exchange needs to traverse the network.
func NewSession(master []byte, label string) (*Session, error) {
	if len(master) == 0 {
		return nil, ErrKeyLength
	}
	block, err := aes.NewCipher(DeriveKey(master, label))
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	return &Session{aead: aead}, nil
}

// nonce builds the 96-bit GCM nonce from the sequence number. Sequence
// numbers never repeat within a session, so nonces are unique.
func (s *Session) nonce(seq uint64) []byte {
	n := make([]byte, 12)
	binary.LittleEndian.PutUint64(n[4:], seq)
	return n
}

// Seal encrypts plaintext with associated data aad (bound but not
// encrypted; e.g. the routing headers, which satellites must read to
// forward).
func (s *Session) Seal(plaintext, aad []byte) Envelope {
	s.sendSeq++
	ct := s.aead.Seal(nil, s.nonce(s.sendSeq), plaintext, aad)
	return Envelope{Seq: s.sendSeq, Ciphertext: ct}
}

// Open authenticates and decrypts an envelope. Envelopes must arrive with
// strictly increasing sequence numbers; replays and reordering below the
// high-water mark are rejected before any crypto runs.
func (s *Session) Open(env Envelope, aad []byte) ([]byte, error) {
	if env.Seq <= s.recvSeq {
		return nil, fmt.Errorf("%w: seq %d ≤ %d", ErrReplay, env.Seq, s.recvSeq)
	}
	pt, err := s.aead.Open(nil, s.nonce(env.Seq), env.Ciphertext, aad)
	if err != nil {
		return nil, ErrTampered
	}
	s.recvSeq = env.Seq
	return pt, nil
}
