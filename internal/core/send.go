package core

import (
	"errors"
	"fmt"

	"github.com/openspace-project/openspace/internal/assoc"
	"github.com/openspace-project/openspace/internal/economics"
	"github.com/openspace-project/openspace/internal/ground"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// Delivery reports one end-to-end transfer.
type Delivery struct {
	FlowID         uint64
	Path           routing.Path
	HopOwners      []string // owning provider of each traversed node after the user
	LatencyS       float64  // propagation + per-hop processing + gateway queue
	GatewayFeeUSD  float64
	CarriageUSD    float64 // cross-provider carriage charges (§3 accounting)
	CrossOwnerHops int
	// Receipts is the signed per-hop carriage chain: each carrier's
	// non-repudiable acknowledgment, verifiable against the keys providers
	// exchanged at onboarding.
	Receipts []economics.Receipt
}

// Send routes bytes from an associated user to a gateway ground station at
// time t, accounting the transfer in every involved provider's ledger and
// the gateway's meter, and returns the delivery report.
//
// This is Figure 1 end to end: access link to the serving satellite, ISLs
// across (possibly several) providers, downlink to an independently owned
// gateway, with §3's accounting on every cross-owner hop.
func (n *Network) Send(userID, stationID string, bytes int64, t float64) (*Delivery, error) {
	u, err := n.sender(userID, bytes)
	if err != nil {
		return nil, err
	}
	st := n.members[stationID].station
	if st == nil {
		return nil, fmt.Errorf("core: unknown ground station %q", stationID)
	}
	if n.te == nil {
		return nil, errors.New("core: BuildTopology must run before Send")
	}
	path, err := n.route(n.snapshotAt(t), userID, stationID)
	if err != nil {
		return nil, fmt.Errorf("core: routing %s → %s: %w", userID, stationID, err)
	}
	return n.deliver(u, st, path, bytes, t)
}

// sender checks that a transfer of bytes from userID can be sent: a
// positive size from a known, associated user.
func (n *Network) sender(userID string, bytes int64) (*User, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("core: bytes %d must be positive", bytes)
	}
	u, ok := n.users[userID]
	if !ok {
		return nil, fmt.Errorf("core: unknown user %q", userID)
	}
	if u.Terminal.State() != assoc.StateAssociated {
		return nil, fmt.Errorf("core: user %q not associated (state %v)", userID, u.Terminal.State())
	}
	return u, nil
}

// deliver accounts a checked transfer of bytes from u to st over path,
// routed at time t, and returns its delivery report.
func (n *Network) deliver(u *User, st *ground.Station, path routing.Path, bytes int64, t float64) (*Delivery, error) {
	// Hop ownership: every traversed node after the user attributes its
	// owner; that is the infrastructure that carried the traffic. The arcs
	// index the snapshot in force at t, which path was routed on.
	ix := n.snapshotAt(t).Index()
	owners := make([]string, len(path.Arcs))
	for i, a := range path.Arcs {
		owners[i] = ix.Nodes[ix.To[a]].Provider
	}

	// §3: "the volume of traffic along this path is tracked by all parties
	// involved" — the home ISP and every carrier record independently.
	involved := map[string]bool{u.HomeISP: true}
	for _, o := range owners {
		involved[o] = true
	}
	for pid := range involved {
		if p := n.providers[pid]; p != nil {
			if err := p.Ledger.RecordPath(u.HomeISP, owners, bytes); err != nil {
				return nil, err
			}
		}
	}

	// Gateway metering and pricing.
	offer, err := st.Admit(u.HomeISP, bytes, t)
	if err != nil {
		return nil, err
	}

	n.flowSeq++
	d := &Delivery{
		FlowID:        n.flowSeq,
		Path:          path,
		HopOwners:     owners,
		LatencyS:      path.DelayS + float64(path.Hops)*n.cfg.PerHopProcessingS + offer.QueueDelayS,
		GatewayFeeUSD: float64(bytes) / 1e9 * offer.PricePerGB,
	}
	// Carriage charges: every hop owned by neither the home ISP nor the
	// gateway owner's free tier — priced at the carrier's flat rate.
	gb := float64(bytes) / 1e9
	for _, o := range owners {
		if o == u.HomeISP {
			continue
		}
		d.CrossOwnerHops++
		if p := n.providers[o]; p != nil {
			d.CarriageUSD += gb * p.CarriagePerGB
		}
	}
	// Every hop's carrier signs a receipt for the carriage chain.
	d.Receipts = make([]economics.Receipt, 0, len(owners))
	for i, o := range owners {
		r := economics.Receipt{
			Carrier: o, Customer: u.HomeISP,
			FlowID: d.FlowID, HopIndex: i, Bytes: bytes, AtS: t,
		}
		if p := n.providers[o]; p != nil {
			r.SignWith(p.Auth.Sign)
		}
		d.Receipts = append(d.Receipts, r)
	}
	return d, nil
}

// snapshotAt returns the snapshot in force at t, degraded by the installed
// fault mask; nil before BuildTopology.
func (n *Network) snapshotAt(t float64) *topo.Snapshot {
	if n.te == nil {
		return nil
	}
	return n.mask.View(n.te.At(t))
}

// route returns the lowest-latency path from src to dst over snap.
func (n *Network) route(snap *topo.Snapshot, src, dst string) (routing.Path, error) {
	return routing.ShortestPath(snap, src, dst, n.latency)
}
