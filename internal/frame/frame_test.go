package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sampleFrames returns one populated instance of every frame type.
func sampleFrames() []Frame {
	orbit := OrbitalState{
		SemiMajorAxisKm: 7151, Eccentricity: 0.001, InclinationDeg: 86.4,
		RAANDeg: 30, ArgPerigeeDeg: 0, MeanAnomalyDeg: 127.3, EpochS: 3600,
	}
	return []Frame{
		&Beacon{
			SatelliteID: "acme-p0s3", ProviderID: "acme", Caps: CapRF | CapLaser,
			Orbit: orbit, LoadFraction: 0.42, SentAtS: 1234.5,
		},
		&AuthRequest{UserID: "user-17", HomeISP: "acme", ViaSatID: "orbit-co-7", ClientNonce: 0xDEADBEEF},
		&AuthChallenge{UserID: "user-17", ServerNonce: 0xCAFEBABE12345678},
		&AuthResponse{UserID: "user-17", Proof: []byte{1, 2, 3, 4, 5}},
		&AuthResult{UserID: "user-17", Success: true, Certificate: []byte("cert-bytes")},
		&AuthResult{UserID: "user-18", Success: false, Reason: "unknown user"},
	}
}

// sampleWire is the encoding of each sampleFrames entry, in order. The
// bytes are the protocol: any change here breaks interoperability with
// peers (and every signed beacon).
var sampleWire = []string{
	"534f01015f000000090061636d652d70307333040061636d6503000000000000efbb40" +
		"fca9f1d24d62503f9a999999999955400000000000003e4000000000000000003333" +
		"333333d35f40000000000020ac40e17a14ae47e1da3f00000000004a934000000000" +
		"7a9e3222",
	"534f0104230000000700757365722d3137040061636d650a006f726269742d636f2d37" +
		"efbeadde00000000865b373d",
	"534f0105110000000700757365722d313778563412bebafeca4b750758",
	"534f0106120000000700757365722d3137050000000102030405f30f002e",
	"534f01071a0000000700757365722d3137010a000000636572742d627974657300" +
		"00da20b0e3",
	"534f01071c0000000700757365722d313800000000000c00756e6b6e6f776e207573" +
		"6572c6138c47",
}

// retiredWire holds well-formed messages (valid envelope and CRC) of the
// retired type numbers 2, 3, 8, 9 and 10: the pair request, two pair
// responses, data, handover notice and ack frames as the protocol once
// encoded them. Decoders must reject each as an unknown type.
var retiredWire = []string{
	"534f010241000000090061636d652d703073330a006f726269742d636f2d370300" +
		"9a9999999999b93f9a9999999999c9bf0ad7a3703d0aef3f0000000065cdcd41" +
		"0000000065cdbd4198a93e3c",
	"534f0103230000000a006f726269742d636f2d37090061636d652d7030733301" +
		"020000000065cdbd410000cba35b1e",
	"534f0103390000000a006f726269742d636f2d37090061636d652d7030733300" +
		"0100000000000000001600706f7765722062756467657420657868617573746564" +
		"adbae637",
	"534f0108320000006300000000000000070000000700757365722d31370a006773" +
		"2d6e6169726f6269100c00000068656c6c6f2c2073706163656d8774d7",
	"534f01095e000000090061636d652d70307333090061636d652d7030733400000000" +
		"00efbb40fca9f1d24d62503f9a999999999955400000000000003e400000000000" +
		"0000003333333333d35f40000000000020ac400000000000509440cdab00000000" +
		"000064b05db7",
	"534f010a0c000000630000000000000007000000a39b92c3",
}

func mustHex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestEncodeBytesStable(t *testing.T) {
	frames := sampleFrames()
	if len(frames) != len(sampleWire) {
		t.Fatalf("%d sample frames, %d pinned encodings", len(frames), len(sampleWire))
	}
	for i, f := range frames {
		wire, err := Encode(f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.FrameType(), err)
		}
		if got := hex.EncodeToString(wire); got != sampleWire[i] {
			t.Errorf("%v: encoding changed:\ngot  %s\nwant %s", f.FrameType(), got, sampleWire[i])
		}
	}
}

func TestWireTypeNumbers(t *testing.T) {
	for typ, want := range map[Type]uint8{
		TypeBeacon: 1, TypeAuthRequest: 4, TypeAuthChallenge: 5,
		TypeAuthResponse: 6, TypeAuthResult: 7,
	} {
		if uint8(typ) != want {
			t.Errorf("%v = %d on the wire, want %d", typ, uint8(typ), want)
		}
	}
	seen := map[uint8]bool{}
	for _, s := range retiredWire {
		wire := mustHex(t, s)
		seen[wire[3]] = true
		if _, _, err := Decode(wire); !errors.Is(err, ErrUnknownType) {
			t.Errorf("retired type %d: got %v, want ErrUnknownType", wire[3], err)
		}
	}
	for _, typ := range []uint8{2, 3, 8, 9, 10} {
		if !seen[typ] {
			t.Errorf("no retired message of type %d", typ)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		wire, err := Encode(f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.FrameType(), err)
		}
		got, n, err := Decode(wire)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.FrameType(), err)
		}
		if n != len(wire) {
			t.Errorf("%v: consumed %d of %d bytes", f.FrameType(), n, len(wire))
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%v: round trip mismatch:\nsent %+v\ngot  %+v", f.FrameType(), f, got)
		}
	}
}

func TestDecodeStream(t *testing.T) {
	// Multiple frames concatenated decode one at a time via the returned
	// byte count.
	var stream []byte
	frames := sampleFrames()
	for _, f := range frames {
		w, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, w...)
	}
	var got []Frame
	for len(stream) > 0 {
		f, n, err := Decode(stream)
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		got = append(got, f)
		stream = stream[n:]
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
}

func TestDecodeErrors(t *testing.T) {
	wire, err := Encode(&AuthChallenge{UserID: "u", ServerNonce: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Truncated at every length below the minimum envelope.
	if _, _, err := Decode(wire[:HeaderLen+ChecksumLen-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short buffer: got %v, want ErrTruncated", err)
	}
	// Truncated payload.
	if _, _, err := Decode(wire[:len(wire)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: got %v, want ErrTruncated", err)
	}
	// Bad magic.
	bad := bytes.Clone(wire)
	bad[0] ^= 0xFF
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	// Bad version.
	bad = bytes.Clone(wire)
	bad[2] = 99
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: got %v", err)
	}
	// Corrupted body → checksum error.
	bad = bytes.Clone(wire)
	bad[HeaderLen] ^= 0x01
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupt body: got %v", err)
	}
	// Unknown type (fix the checksum so the type check is reached).
	bad = bytes.Clone(wire)
	bad[3] = 200
	fixChecksum(bad)
	if _, _, err := Decode(bad); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: got %v", err)
	}
	// Oversized declared payload.
	bad = bytes.Clone(wire)
	binary.LittleEndian.PutUint32(bad[4:8], MaxPayload+1)
	if _, _, err := Decode(bad); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized: got %v", err)
	}
}

func fixChecksum(b []byte) {
	sum := crc32.ChecksumIEEE(b[:len(b)-ChecksumLen])
	binary.LittleEndian.PutUint32(b[len(b)-ChecksumLen:], sum)
}

func TestEncodeTooLarge(t *testing.T) {
	r := &AuthResponse{Proof: make([]byte, MaxPayload+1)}
	if _, err := Encode(r); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized encode: got %v, want ErrTooLarge", err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// A payload with trailing garbage must fail strict decoding even when
	// the checksum is valid.
	wire, err := Encode(&AuthChallenge{UserID: "u", ServerNonce: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Splice one extra payload byte in and re-seal.
	body := bytes.Clone(wire[:len(wire)-ChecksumLen])
	body = append(body, 0x00)
	binary.LittleEndian.PutUint32(body[4:8], uint32(len(body)-HeaderLen))
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, _, err := Decode(body); !errors.Is(err, ErrBadField) {
		t.Errorf("trailing bytes: got %v, want ErrBadField", err)
	}
}

func TestFuzzDecodeNeverPanics(t *testing.T) {
	// Decode must reject arbitrary garbage gracefully.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		if f, _, err := Decode(buf); err == nil {
			// Vanishingly unlikely; if it decodes, it must be well-formed.
			if f == nil {
				t.Fatal("nil frame with nil error")
			}
		}
	}
	// Bit-flipped real frames likewise.
	wire, err := Encode(sampleFrames()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(wire)*8; i++ {
		mut := bytes.Clone(wire)
		mut[i/8] ^= 1 << (i % 8)
		Decode(mut) // must not panic
	}
}

func TestBeaconRoundTripProperty(t *testing.T) {
	f := func(satID, provID string, caps uint16, load, sent float64) bool {
		if len(satID) > 1000 || len(provID) > 1000 {
			return true
		}
		in := &Beacon{
			SatelliteID: satID, ProviderID: provID, Caps: Capability(caps),
			Orbit:        OrbitalState{SemiMajorAxisKm: 7151, MeanAnomalyDeg: 12},
			LoadFraction: load, SentAtS: sent,
		}
		wire, err := Encode(in)
		if err != nil {
			return false
		}
		out, n, err := Decode(wire)
		if err != nil || n != len(wire) {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCapabilityHas(t *testing.T) {
	c := CapRF | CapLaser
	if !c.Has(CapRF) || !c.Has(CapLaser) || !c.Has(CapRF|CapLaser) {
		t.Error("Has should report set bits")
	}
	if c.Has(CapGroundKu) || c.Has(CapRF|CapGroundKu) {
		t.Error("Has should reject unset bits")
	}
}

func TestTypeStrings(t *testing.T) {
	for _, f := range sampleFrames() {
		if s := f.FrameType().String(); s == "" || s[0] == 'T' {
			t.Errorf("missing String for %d", f.FrameType())
		}
	}
	if Type(99).String() != "Type(99)" {
		t.Error("unknown type String")
	}
}
