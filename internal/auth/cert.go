package auth

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Certificate is the home ISP's signed attestation that a user has been
// authenticated (§2.2: "The user's home provider should assign the user a
// digital certificate to inform other satellite providers that the user has
// been authenticated by their home network"). Visited providers verify it
// against the issuer's public key from their TrustStore — no online check.
type Certificate struct {
	UserID     string
	Issuer     string  // home provider ID
	IssuedAtS  float64 // seconds since network epoch
	ExpiresAtS float64
	Signature  []byte // Ed25519 over signedBytes()
}

// String implements fmt.Stringer.
func (c *Certificate) String() string {
	return fmt.Sprintf("cert{%s by %s, valid %.0f..%.0f}", c.UserID, c.Issuer, c.IssuedAtS, c.ExpiresAtS)
}

// signedBytes returns the canonical byte string covered by the signature.
func (c *Certificate) signedBytes() []byte {
	b := make([]byte, 0, 4+len(c.UserID)+len(c.Issuer)+16)
	b = appendStr(b, c.UserID)
	b = appendStr(b, c.Issuer)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.IssuedAtS))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.ExpiresAtS))
	return b
}

// Marshal serialises the certificate for transport between providers.
// Association inside the simulator passes the *Certificate itself.
func (c *Certificate) Marshal() []byte { //lint:allow unused retires with FuzzUnmarshalCertificate, in a change of its own
	b := c.signedBytes()
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Signature)))
	return append(b, c.Signature...)
}

// UnmarshalCertificate parses a certificate serialised with Marshal.
func UnmarshalCertificate(b []byte) (*Certificate, error) { //lint:allow unused retires with FuzzUnmarshalCertificate, in a change of its own
	c := &Certificate{}
	var err error
	if c.UserID, b, err = readStr(b); err != nil {
		return nil, err
	}
	if c.Issuer, b, err = readStr(b); err != nil {
		return nil, err
	}
	if len(b) < 16 {
		return nil, errTruncatedCert
	}
	c.IssuedAtS = math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
	c.ExpiresAtS = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
	b = b[16:]
	if len(b) < 2 {
		return nil, errTruncatedCert
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) != n {
		return nil, errTruncatedCert
	}
	c.Signature = append([]byte(nil), b...)
	return c, nil
}

var errTruncatedCert = errors.New("auth: truncated certificate")

// maxIDLen is the longest user or provider ID a certificate can carry:
// Marshal writes each with a uint16 length prefix.
const maxIDLen = math.MaxUint16

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readStr(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errTruncatedCert
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, errTruncatedCert
	}
	return string(b[:n]), b[n:], nil
}
