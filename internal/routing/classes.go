package routing

import "fmt"

// ServiceClass names a QoS tier a provider sells. The paper (§2.2) has
// providers pre-position laser-equipped satellites "to handle traffic from
// users with more stringent QoS requirements" and, where paths are
// bandwidth-bottlenecked, "adjust advertised plans to reflect these looser
// QoS guarantees" — service classes are those advertised plans, expressed
// as routing policies.
type ServiceClass int

// Service classes, from most to least demanding.
const (
	// ClassInteractive: voice/video — latency-dominated, needs real
	// bandwidth, avoids slow RF hops and congested links aggressively.
	ClassInteractive ServiceClass = iota
	// ClassStandard: web browsing — balanced.
	ClassStandard
	// ClassBulk: background transfer — cheapest path wins; happily rides
	// RF ISLs and pays no premium to avoid other providers.
	ClassBulk
)

// String implements fmt.Stringer.
func (c ServiceClass) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassStandard:
		return "standard"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("ServiceClass(%d)", int(c))
	}
}

// Policy returns the class's routing policy.
func (c ServiceClass) Policy() QoSPolicy {
	switch c {
	case ClassInteractive:
		return QoSPolicy{
			MinCapacityBps:   10e6,
			DelayWeight:      2000,
			BandwidthWeight:  0.5,
			CrossOwnerTariff: 0.2, // latency matters more than tariffs
			RFPenalty:        2,   // strongly prefer laser ISLs
			LoadPenalty:      10,  // flee congestion early
		}
	case ClassBulk:
		return QoSPolicy{
			DelayWeight:      100, // latency nearly irrelevant
			BandwidthWeight:  0.05,
			CrossOwnerTariff: 2, // cost-sensitive: stay on-net when possible
			RFPenalty:        0, // RF is fine for bulk
			LoadPenalty:      2,
		}
	default:
		return DefaultQoS()
	}
}
