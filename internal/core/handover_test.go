package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/routing"
)

func TestPlanAndExecuteHandover(t *testing.T) {
	n := builtNetwork(t)
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	plan, err := n.PlanHandover("alice", 0, 3600)
	if err != nil {
		t.Fatal(err)
	}
	serving, _ := n.User("alice").Terminal.Serving()
	if plan.Serving != serving {
		t.Errorf("plan serving %s, terminal says %s", plan.Serving, serving)
	}
	if plan.SuccessorID == plan.Serving || plan.SuccessorID == "" {
		t.Errorf("bad successor: %+v", plan)
	}
	if plan.SetTimeS <= 0 || plan.SetTimeS >= 3600 {
		t.Errorf("set time %v outside horizon", plan.SetTimeS)
	}
	if plan.SuccessorProvider == "" {
		t.Error("successor provider missing")
	}

	if err := n.ExecuteHandover("alice", plan); err != nil {
		t.Fatal(err)
	}
	sat, prov := n.User("alice").Terminal.Serving()
	if sat != plan.SuccessorID || prov != plan.SuccessorProvider {
		t.Errorf("after handover serving %s/%s, want %s/%s",
			sat, prov, plan.SuccessorID, plan.SuccessorProvider)
	}
}

func TestHandoverErrors(t *testing.T) {
	n := builtNetwork(t)
	if _, err := n.PlanHandover("ghost", 0, 3600); err == nil {
		t.Error("unknown user should fail")
	}
	// Unassociated user.
	if _, err := n.PlanHandover("alice", 0, 3600); err == nil {
		t.Error("unassociated user should fail")
	}
	if err := n.ExecuteHandover("ghost", &HandoverPlan{}); err == nil {
		t.Error("unknown user execute should fail")
	}
	if err := n.ExecuteHandover("alice", nil); err == nil {
		t.Error("nil plan should fail")
	}
}

func TestRankGatewaysPrefersIdle(t *testing.T) {
	n := builtNetwork(t)
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	const mb100 = int64(100_000_000)
	base, _, err := n.rankGateways("alice", mb100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 { // gs-seattle, gs-nairobi
		t.Fatalf("choices = %+v", base)
	}
	// Completion ordering holds.
	if base[0].CompletionS > base[1].CompletionS {
		t.Error("choices not sorted by completion")
	}
	best := base[0]

	// Pile enormous home-class backlog onto the currently best station
	// (home traffic delays every class); ranking must flip to the other
	// one (the §5(2) trade-off).
	m := n.members[best.StationID]
	if _, err := m.station.Admit(m.owner, 40_000_000_000, 0); err != nil { // 320 Gb ≈ 32 s backlog
		t.Fatal(err)
	}
	after, _, err := n.rankGateways("alice", mb100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].StationID == best.StationID {
		t.Errorf("ranking did not react to load: %+v", after)
	}
	if after[0].QueueDelayS > after[1].QueueDelayS {
		t.Error("winner should be the idle station")
	}
}

func TestSendBestDelivers(t *testing.T) {
	n := builtNetwork(t)
	if err := n.Associate("alice", 0); err != nil {
		t.Fatal(err)
	}
	d, choice, err := n.SendBest("alice", 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Path.Nodes[len(d.Path.Nodes)-1] != choice.StationID {
		t.Errorf("delivered to %s, chose %s",
			d.Path.Nodes[len(d.Path.Nodes)-1], choice.StationID)
	}
	if _, _, err := n.SendBest("ghost", 1, 0); err == nil {
		t.Error("unknown user should fail")
	}
}

// fourStationNetwork is the Iridium federation of threeProviderConfig
// with two more gateways, London and Santiago, on skynet, and three
// users, a-user and b-user associated and c-user not: the network
// TestSendBestMatchesRankThenSend builds its twins as.
func fourStationNetwork(t *testing.T) *Network {
	t.Helper()
	cfg := threeProviderConfig(t)
	cfg.Providers[2].GroundStations = []GroundStationConfig{
		{ID: "gs-london", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}, BackhaulBps: 2e9, PricePerGB: 0.06, VisitorSurge: 1},
		{ID: "gs-santiago", Pos: geo.LatLon{Lat: -33.45, Lon: -70.67}, BackhaulBps: 1e9, PricePerGB: 0.04, VisitorSurge: 4},
	}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range []geo.LatLon{{Lat: 40.44, Lon: -79.99}, {Lat: -1.29, Lon: 36.82}, {Lat: 51.51, Lon: -0.13}} {
		if _, err := n.AddUser(userName(i), []string{"acme", "orbitco", "skynet"}[i], pos); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.BuildTopology(0, 900, 60); err != nil {
		t.Fatal(err)
	}
	// c-user stays unassociated throughout.
	for _, id := range []string{userName(0), userName(1)} {
		if err := n.Associate(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// rankPerStation is the per-station gateway ranking rankGateways
// replaced, kept as its oracle: one ShortestPath per ground station,
// then the sort by completion time and station ID.
func rankPerStation(n *Network, userID string, bytes int64, t float64) ([]GatewayChoice, error) {
	u, ok := n.users[userID]
	if !ok {
		return nil, fmt.Errorf("core: unknown user %q", userID)
	}
	if n.te == nil {
		return nil, errors.New("core: BuildTopology must run before SendBest")
	}
	snap := n.snapshotAt(t)
	var out []GatewayChoice
	for _, st := range n.stations {
		path, err := routing.ShortestPath(snap, userID, st.ID, n.latency)
		if err != nil {
			continue
		}
		offer := st.Quote(u.HomeISP, t)
		serialise := float64(bytes*8) / st.BackhaulBps
		lat := path.DelayS + float64(path.Hops)*n.cfg.PerHopProcessingS
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
		return nil, errors.New("core: no reachable gateway")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CompletionS != out[j].CompletionS {
			return out[i].CompletionS < out[j].CompletionS
		}
		return out[i].StationID < out[j].StationID
	})
	return out, nil
}

// TestRankGatewaysMatchesPerStation holds rankGateways to rankPerStation
// on the four-station Iridium federation, with no fault mask and with a
// fault timeline's mask installed (the overlay view), over a sequence of
// users, sizes and times while SendBest loads the stations: the same
// choices in the same order, bit for bit, or the same error. The route
// SendBest takes must be ShortestPath's to the first choice.
func TestRankGatewaysMatchesPerStation(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		n := fourStationNetwork(t)
		var tl *faults.Timeline
		if faulty {
			var err error
			tl, err = faults.Generate(faults.Default().Scale(100), 900, faults.InputsFromSnapshot(n.te.At(0)))
			if err != nil {
				t.Fatal(err)
			}
		}
		ranked, masked, flipped := 0, 0, 0
		var lastBest string
		for step := range 90 {
			at := float64(step) * 10
			if tl != nil {
				if n.mask = tl.MaskAt(at); !n.mask.Empty() {
					masked++
				}
			}
			id := userName(step % 4) // d-user is unknown
			bytes := int64(step%5+1) * 40_000_000
			got, _, gotErr := n.rankGateways(id, bytes, at)
			want, wantErr := rankPerStation(n, id, bytes, at)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("faulty=%v step %d: rankGateways error %v, per-station %v", faulty, step, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("faulty=%v step %d: rankGateways %+v, per-station %+v", faulty, step, got, want)
			}
			if gotErr != nil {
				continue
			}
			ranked++
			if got[0].StationID != lastBest {
				flipped++
				lastBest = got[0].StationID
			}
			_, path, err := n.rankGateways(id, bytes, at)
			wantPath, wantPathErr := routing.ShortestPath(n.snapshotAt(at), id, got[0].StationID, n.latency)
			if err != nil || wantPathErr != nil || !reflect.DeepEqual(path, wantPath) {
				t.Fatalf("faulty=%v step %d: route to %s %v (%v), ShortestPath %v (%v)",
					faulty, step, got[0].StationID, path.Nodes, err, wantPath.Nodes, wantPathErr)
			}
			if id != userName(2) { // c-user is not associated
				if _, _, err := n.SendBest(id, bytes, at); err != nil {
					t.Fatalf("faulty=%v step %d: SendBest: %v", faulty, step, err)
				}
			}
		}
		t.Logf("faulty=%v: %d rankings, %d changes of winner, %d steps under faults", faulty, ranked, flipped, masked)
		if ranked == 0 || flipped < 2 || faulty && masked == 0 {
			t.Fatalf("faulty=%v: %d rankings, %d changes of winner, %d steps under faults; the oracle was not exercised",
				faulty, ranked, flipped, masked)
		}
	}
}

// rankThenSend is SendBest's specification: rank the gateways, then Send
// to the first.
func rankThenSend(n *Network, userID string, bytes int64, t float64) (*Delivery, GatewayChoice, error) {
	choices, _, err := n.rankGateways(userID, bytes, t)
	if err != nil {
		return nil, GatewayChoice{}, err
	}
	d, err := n.Send(userID, choices[0].StationID, bytes, t)
	if err != nil {
		return nil, GatewayChoice{}, err
	}
	return d, choices[0], nil
}

// TestSendBestMatchesRankThenSend runs one sequence of transfers through
// SendBest on one network and through rankThenSend on its twin, built
// from the same seed, with and without a fault timeline installed as
// RunScenario installs it. Every delivery, choice and error, and in the
// end every ledger and station meter, must be identical.
func TestSendBestMatchesRankThenSend(t *testing.T) {
	twin := func() *Network {
		cfg := threeProviderConfig(t)
		cfg.Providers[2].GroundStations = []GroundStationConfig{
			{ID: "gs-london", Pos: geo.LatLon{Lat: 51.51, Lon: -0.13}, BackhaulBps: 2e9, PricePerGB: 0.06, VisitorSurge: 1},
			{ID: "gs-santiago", Pos: geo.LatLon{Lat: -33.45, Lon: -70.67}, BackhaulBps: 1e9, PricePerGB: 0.04, VisitorSurge: 4},
		}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, pos := range []geo.LatLon{{Lat: 40.44, Lon: -79.99}, {Lat: -1.29, Lon: 36.82}, {Lat: 51.51, Lon: -0.13}} {
			if _, err := n.AddUser(userName(i), []string{"acme", "orbitco", "skynet"}[i], pos); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.BuildTopology(0, 900, 60); err != nil {
			t.Fatal(err)
		}
		// c-user stays unassociated throughout.
		for _, id := range []string{userName(0), userName(1)} {
			if err := n.Associate(id, 0); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	for _, faulty := range []bool{false, true} {
		best, spec := twin(), twin()
		var tl *faults.Timeline
		if faulty {
			var err error
			tl, err = faults.Generate(faults.Default().Scale(100), 900, faults.InputsFromSnapshot(best.te.At(0)))
			if err != nil {
				t.Fatal(err)
			}
		}
		delivered, masked := 0, 0
		for step := range 90 {
			at := float64(step) * 10
			if tl != nil {
				best.mask, spec.mask = tl.MaskAt(at), tl.MaskAt(at)
				if !best.mask.Empty() {
					masked++
				}
			}
			id := userName(step % 4)              // d-user is unknown
			bytes := int64(step%7-1) * 40_000_000 // some sizes are ≤ 0
			got, gotChoice, gotErr := best.SendBest(id, bytes, at)
			want, wantChoice, wantErr := rankThenSend(spec, id, bytes, at)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("faulty=%v step %d: SendBest error %v, rank-then-send %v", faulty, step, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) || gotChoice != wantChoice {
				t.Fatalf("faulty=%v step %d: SendBest gave %+v via %+v, rank-then-send %+v via %+v",
					faulty, step, got, gotChoice, want, wantChoice)
			}
			if gotErr == nil {
				delivered++
			}
		}
		if delivered == 0 || faulty && masked == 0 {
			t.Fatalf("faulty=%v: %d deliveries, %d steps under faults; the twins were not exercised", faulty, delivered, masked)
		}
		for _, pid := range best.Providers() {
			if !reflect.DeepEqual(best.Provider(pid).Ledger, spec.Provider(pid).Ledger) {
				t.Errorf("faulty=%v: ledgers of %s differ", faulty, pid)
			}
		}
		if !reflect.DeepEqual(best.stations, spec.stations) {
			t.Errorf("faulty=%v: station meters differ", faulty)
		}
	}
}
