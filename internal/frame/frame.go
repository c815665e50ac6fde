// Package frame defines the standardized wire formats that make OpenSpace
// spacecraft interoperable. The paper's first requirement (§2, item 1) is
// "an open and standardized communication protocol for all spacecraft in the
// system"; this package is that protocol's frame layer: beacons carrying
// orbital information and the RADIUS-style authentication exchange. ISL
// pairing is modelled in topo from the phy link budgets, and data and
// handover signalling are simulated without a wire encoding, so this
// package defines no pairing, data or handover frames.
//
// Encoding is a fixed little-endian binary layout with an 8-byte header
// (magic, version, type, payload length) and a trailing CRC-32 checksum
// over everything before it. Strings are length-prefixed UTF-8.
// The design follows the layered decode model of gopacket: each frame type
// knows how to append itself to a buffer and decode itself from one, and a
// registry dispatches on the header's type byte — so new frame types can be
// added without touching the envelope.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Protocol constants.
const (
	// Magic identifies an OpenSpace frame ("OS").
	Magic uint16 = 0x4F53
	// Version is the protocol version this package implements.
	Version uint8 = 1
	// HeaderLen is the fixed envelope header size in bytes.
	HeaderLen = 8
	// ChecksumLen is the trailing CRC-32 size in bytes.
	ChecksumLen = 4
	// MaxPayload bounds the payload so that a length field cannot make a
	// receiver allocate unboundedly.
	MaxPayload = 64 * 1024
)

// Type identifies a frame type on the wire.
type Type uint8

// Frame types. The values are wire numbers: never renumber them, and do
// not reuse 2, 3 or 8–10, which older peers sent for retired frame types
// (they decode as ErrUnknownType).
const (
	TypeBeacon        Type = 1
	TypeAuthRequest   Type = 4
	TypeAuthChallenge Type = 5
	TypeAuthResponse  Type = 6
	TypeAuthResult    Type = 7
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeBeacon:
		return "beacon"
	case TypeAuthRequest:
		return "auth-request"
	case TypeAuthChallenge:
		return "auth-challenge"
	case TypeAuthResponse:
		return "auth-response"
	case TypeAuthResult:
		return "auth-result"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Decoding errors.
var (
	ErrTruncated   = errors.New("frame: truncated")
	ErrBadMagic    = errors.New("frame: bad magic")
	ErrBadVersion  = errors.New("frame: unsupported version")
	ErrBadChecksum = errors.New("frame: checksum mismatch")
	ErrUnknownType = errors.New("frame: unknown frame type")
	ErrTooLarge    = errors.New("frame: payload exceeds MaxPayload")
	ErrBadField    = errors.New("frame: malformed field")
)

// Frame is the interface all OpenSpace frame bodies implement.
type Frame interface {
	// FrameType returns the on-wire type byte.
	FrameType() Type
	// appendPayload appends the body encoding (excluding envelope) to b.
	appendPayload(b []byte) []byte
	// decodePayload parses the body from p, which holds exactly the payload.
	decodePayload(p []byte) error
}

// Encode serialises a frame into a standalone wire message:
// header | payload | crc32.
func Encode(f Frame) ([]byte, error) {
	payload := f.appendPayload(nil)
	if len(payload) > MaxPayload {
		return nil, ErrTooLarge
	}
	buf := make([]byte, HeaderLen, HeaderLen+len(payload)+ChecksumLen)
	binary.LittleEndian.PutUint16(buf[0:2], Magic)
	buf[2] = Version
	buf[3] = uint8(f.FrameType())
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	buf = append(buf, payload...)
	sum := crc32.ChecksumIEEE(buf)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	return buf, nil
}

// Decode parses one wire message produced by Encode and returns the typed
// frame body. It returns the number of bytes consumed, so callers can decode
// streams of concatenated frames.
func Decode(b []byte) (Frame, int, error) {
	if len(b) < HeaderLen+ChecksumLen {
		return nil, 0, ErrTruncated
	}
	if binary.LittleEndian.Uint16(b[0:2]) != Magic {
		return nil, 0, ErrBadMagic
	}
	if b[2] != Version {
		return nil, 0, ErrBadVersion
	}
	plen := int(binary.LittleEndian.Uint32(b[4:8]))
	if plen > MaxPayload {
		return nil, 0, ErrTooLarge
	}
	total := HeaderLen + plen + ChecksumLen
	if len(b) < total {
		return nil, 0, ErrTruncated
	}
	want := binary.LittleEndian.Uint32(b[total-ChecksumLen : total])
	if crc32.ChecksumIEEE(b[:total-ChecksumLen]) != want {
		return nil, 0, ErrBadChecksum
	}
	f := newFrame(Type(b[3]))
	if f == nil {
		return nil, 0, ErrUnknownType
	}
	if err := f.decodePayload(b[HeaderLen : HeaderLen+plen]); err != nil {
		return nil, 0, err
	}
	return f, total, nil
}

// newFrame returns a zero value of the body type for t, or nil.
func newFrame(t Type) Frame {
	switch t {
	case TypeBeacon:
		return &Beacon{}
	case TypeAuthRequest:
		return &AuthRequest{}
	case TypeAuthChallenge:
		return &AuthChallenge{}
	case TypeAuthResponse:
		return &AuthResponse{}
	case TypeAuthResult:
		return &AuthResult{}
	default:
		return nil
	}
}

// --- primitive field encoding helpers ---

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// reader walks a payload buffer with error latching: after the first
// failure every subsequent read returns zero values, and the error is
// checked once at the end of decodePayload.
type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u16())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	if n == 0 {
		// The wire format does not distinguish nil from empty; decode to nil
		// so round trips compare equal.
		return nil
	}
	p := make([]byte, n)
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return p
}

func (r *reader) bool() bool { return r.u8() != 0 }

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrBadField
	}
}

// done returns the latched error, also failing if unread bytes remain
// (a strict decode catches version-skew bugs early).
func (r *reader) done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadField, len(r.b))
	}
	return r.err
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
