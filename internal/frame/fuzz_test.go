package frame

import (
	"bytes"
	"testing"
)

// FuzzDecode exercises the decoder with arbitrary bytes. Run with
// `go test -fuzz=FuzzDecode ./internal/frame/` for continuous fuzzing; the
// seed corpus (valid frames and adversarial variants) runs in every normal
// test invocation.
func FuzzDecode(f *testing.F) {
	var seeds [][]byte
	for _, fr := range sampleFrames() {
		wire, err := Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, wire)
	}
	// Messages of retired types only exercise rejection: they are well
	// formed, so Decode must refuse them as unknown types.
	for _, s := range retiredWire {
		seeds = append(seeds, mustHex(f, s))
	}
	for _, wire := range seeds {
		f.Add(wire)
		// Adversarial seeds: truncations and bit flips of valid frames.
		f.Add(wire[:len(wire)/2])
		mut := bytes.Clone(wire)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err != nil {
			return // rejecting garbage is correct
		}
		if fr == nil {
			t.Fatal("nil frame with nil error")
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Anything that decodes must re-encode to an equivalent frame.
		wire, err := Encode(fr)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		again, _, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if again.FrameType() != fr.FrameType() {
			t.Fatalf("type changed across round trip")
		}
	})
}
