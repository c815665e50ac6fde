package economics

import (
	"encoding/binary"
	"math"
)

// Receipt is a carrier's signed acknowledgment of having carried part of a
// flow: hop HopIndex of flow FlowID, Bytes bytes, on behalf of Customer.
// Receipts make §3's "easily cross-verifiable account" non-repudiable: a
// provider disputing a ledger entry can be confronted with its own
// signature, and a provider inflating its claims cannot produce receipts
// for traffic it never carried.
type Receipt struct {
	Carrier  string
	Customer string // the user's home ISP
	FlowID   uint64
	HopIndex int
	Bytes    int64
	AtS      float64
	Sig      []byte
}

func (r *Receipt) signedBytes() []byte {
	b := make([]byte, 0, 64)
	appendStr2 := func(s string) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	appendStr2(r.Carrier)
	appendStr2(r.Customer)
	b = binary.LittleEndian.AppendUint64(b, r.FlowID)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.HopIndex))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Bytes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.AtS))
	return b
}

// SignReceipt signs with the carrier's key via the signer callback
// (typically auth.Authenticator.Sign).
func (r *Receipt) SignWith(sign func([]byte) []byte) {
	r.Sig = sign(r.signedBytes())
}
