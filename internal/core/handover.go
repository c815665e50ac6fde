package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/openspace-project/openspace/internal/assoc"
	"github.com/openspace-project/openspace/internal/handover"
	"github.com/openspace-project/openspace/internal/routing"
)

// HandoverPlan is the outcome of planning a user's next handover.
type HandoverPlan struct {
	Serving           string
	SuccessorID       string
	SuccessorProvider string
	SetTimeS          float64 // when the serving satellite drops below the mask
	CrossProvider     bool
}

// PlanHandover computes the user's next handover from public orbital
// knowledge (§2.2): when the serving satellite will set, and which
// satellite should take over. horizonS bounds the search.
func (n *Network) PlanHandover(userID string, t, horizonS float64) (*HandoverPlan, error) {
	u, ok := n.users[userID]
	if !ok {
		return nil, fmt.Errorf("core: unknown user %q", userID)
	}
	if u.Terminal.State() != assoc.StateAssociated {
		return nil, errors.New("core: user not associated")
	}
	serving, _ := u.Terminal.Serving()

	pred, err := handover.NewPredictor(n.fleet, u.Pos, n.cfg.Topo.MinElevationDeg)
	if err != nil {
		return nil, err
	}
	setTime := pred.VisibleUntil(serving, t, horizonS)
	if setTime >= t+horizonS {
		return nil, fmt.Errorf("core: %s stays visible beyond the horizon", serving)
	}
	succ, found := pred.PickSuccessor(serving, setTime, horizonS)
	if !found {
		return nil, fmt.Errorf("core: no successor visible at t=%.1f (coverage gap)", setTime)
	}
	return &HandoverPlan{
		Serving:           serving,
		SuccessorID:       succ.ID,
		SuccessorProvider: succ.Provider,
		SetTimeS:          setTime,
		CrossProvider:     succ.Provider != n.members[serving].owner,
	}, nil
}

// ExecuteHandover switches the user to the planned successor without
// re-authentication — the certificate from association keeps vouching.
func (n *Network) ExecuteHandover(userID string, plan *HandoverPlan) error {
	u, ok := n.users[userID]
	if !ok {
		return fmt.Errorf("core: unknown user %q", userID)
	}
	if plan == nil {
		return errors.New("core: nil handover plan")
	}
	return u.Terminal.SwitchTo(plan.SuccessorID, plan.SuccessorProvider)
}

// GatewayChoice scores one candidate station for a transfer.
type GatewayChoice struct {
	StationID    string
	Provider     string
	PathLatencyS float64
	QueueDelayS  float64
	CompletionS  float64 // path latency + queue + serialisation on backhaul
	PricePerGB   float64
}

// rankGateways evaluates every reachable gateway for a transfer of the
// given size at time t and returns choices ordered by predicted completion
// time — the paper's §5(2) trade-off made concrete: "peak loads at certain
// ground-stations may necessitate re-routing of traffic to a ground station
// that is further away but is idle; in this case, a computation of the
// trade-off between longer routing distance vs queuing and job completion
// times is necessary at runtime". Each station's path latency is that of
// its lowest-latency route, the one Send would take. It also returns the
// route to the first choice: one search out of the user (routing.Fan)
// reaches every station, each over the path a per-station ShortestPath
// finds, and only the first choice's path is built.
func (n *Network) rankGateways(userID string, bytes int64, t float64) ([]GatewayChoice, routing.Path, error) {
	u, ok := n.users[userID]
	if !ok {
		return nil, routing.Path{}, fmt.Errorf("core: unknown user %q", userID)
	}
	if n.te == nil {
		return nil, routing.Path{}, errors.New("core: BuildTopology must run before SendBest")
	}
	fan, err := routing.NewFan(n.snapshotAt(t), userID, n.latency)
	if err != nil {
		return nil, routing.Path{}, errNoGateway
	}
	defer fan.Release()
	out := make([]GatewayChoice, 0, len(n.stations))
	for _, st := range n.stations {
		hops, delayS, ok := fan.Reach(st.ID)
		if !ok {
			continue
		}
		offer := st.Quote(u.HomeISP, t)
		serialise := float64(bytes*8) / st.BackhaulBps
		lat := delayS + float64(hops)*n.cfg.PerHopProcessingS
		out = append(out, GatewayChoice{
			StationID:    st.ID,
			Provider:     st.Provider,
			PathLatencyS: lat,
			QueueDelayS:  offer.QueueDelayS,
			CompletionS:  lat + offer.QueueDelayS + serialise,
			PricePerGB:   offer.PricePerGB,
		})
	}
	if len(out) == 0 {
		return nil, routing.Path{}, errNoGateway
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CompletionS != out[j].CompletionS { //lint:allow floateq exact sort tie-break keeps gateway ranking deterministic
			return out[i].CompletionS < out[j].CompletionS
		}
		return out[i].StationID < out[j].StationID
	})
	path, err := fan.Path(out[0].StationID)
	return out, path, err
}

// errNoGateway is rankGateways' error when no station is reachable.
var errNoGateway = errors.New("core: no reachable gateway")

// SendBest delivers to the gateway with the earliest predicted completion —
// possibly a farther, idle station over a nearer, loaded one — over the
// route ranking found, with Send's checks and accounting.
func (n *Network) SendBest(userID string, bytes int64, t float64) (*Delivery, GatewayChoice, error) {
	ranked, path, err := n.rankGateways(userID, bytes, t)
	if err != nil {
		return nil, GatewayChoice{}, err
	}
	best := ranked[0]
	u, err := n.sender(userID, bytes)
	if err != nil {
		return nil, GatewayChoice{}, err
	}
	d, err := n.deliver(u, n.members[best.StationID].station, path, bytes, t)
	if err != nil {
		return nil, GatewayChoice{}, err
	}
	return d, best, nil
}
