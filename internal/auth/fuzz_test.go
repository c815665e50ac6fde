package auth

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalCertificate exercises the one parser of bytes that cross
// provider boundaries: any input it accepts must marshal back to exactly
// the same bytes.
func FuzzUnmarshalCertificate(f *testing.F) {
	a := newTestAuthenticator(f, "acme")
	secret := []byte("s")
	if err := a.Enroll("user-17", secret); err != nil {
		f.Fatal(err)
	}
	good := issue(f, a, "user-17", secret).Marshal()
	f.Add(good)
	for i := 0; i < len(good); i++ {
		f.Add(good[:i])
	}
	flipped := bytes.Clone(good)
	flipped[0] ^= 0x01 // the user ID's length prefix
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCertificate(data)
		if err != nil {
			return
		}
		if got := c.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x but it marshals to %x", data, got)
		}
	})
}
