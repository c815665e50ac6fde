package mac

import (
	"fmt"
	"time"

	"github.com/openspace-project/openspace/internal/exec"
)

// TDMAConfig parameterises the TDMA baseline: a repeating frame with one
// dedicated data slot per station. There are no collisions by construction;
// the cost is waiting for one's slot and the idle airtime of unused slots.
type TDMAConfig struct {
	Stations       int
	SlotTime       time.Duration // one TDMA data slot
	GuardSlots     int           // guard time between slots, in slot units
	PerStationRate float64       // packet arrivals per second per station
}

// DefaultTDMA returns a TDMA configuration comparable to DefaultCSMA: the
// data slot carries the same 10×2 ms frame as CSMA's DataSlots.
func DefaultTDMA(stations int, perStationRate float64) TDMAConfig {
	return TDMAConfig{
		Stations:       stations,
		SlotTime:       20 * time.Millisecond,
		GuardSlots:     0,
		PerStationRate: perStationRate,
	}
}

// Validate reports whether the configuration is usable.
func (c TDMAConfig) Validate() error {
	if c.Stations <= 0 {
		return fmt.Errorf("mac: tdma: stations %d must be positive", c.Stations)
	}
	if c.SlotTime <= 0 {
		return fmt.Errorf("mac: tdma: slot time must be positive")
	}
	if c.GuardSlots < 0 {
		return fmt.Errorf("mac: tdma: guard slots must be non-negative")
	}
	return nil
}

// domainTDMA seeds the TDMA arrival stream (see domainCSMA for why the
// MAC schemes stopped sharing one raw stream).
var domainTDMA = exec.Domain{Tag: "mac/tdma", ID: 122}

// RunTDMA simulates the TDMA frame for the given duration. One packet is
// transmitted per owned slot; queued packets wait whole frames. The
// simulation is deterministic for a fixed seed.
func RunTDMA(cfg TDMAConfig, duration time.Duration, seed int64) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	slotUnits := 1 + cfg.GuardSlots // slots occupied per station turn
	frame := cfg.Stations * slotUnits
	slots := int(duration / cfg.SlotTime)
	rng := exec.DomainRNG(seed, domainTDMA)
	arrivals := bernoulliArrivals(cfg.Stations, slots, cfg.PerStationRate, cfg.SlotTime, rng)

	var st Stats
	var delays []int
	queues := make([][]int, cfg.Stations)
	next := make([]int, cfg.Stations)
	payloadSlots := 0

	for t := 0; t < slots; t++ {
		for s := range queues {
			for next[s] < len(arrivals[s]) && arrivals[s][next[s]] == t {
				queues[s] = append(queues[s], t)
				next[s]++
				st.Offered++
			}
		}
		// Whose data slot is this? Station s owns slots where
		// (t mod frame) == s·slotUnits; guard slots carry nothing.
		pos := t % frame
		if pos%slotUnits != 0 {
			continue
		}
		s := pos / slotUnits
		if len(queues[s]) == 0 {
			continue
		}
		st.Attempts++
		st.Delivered++
		delays = append(delays, t+1-queues[s][0])
		queues[s] = queues[s][1:]
		payloadSlots++
	}
	delayStats(&st, delays, cfg.SlotTime)
	if slots > 0 {
		st.Utilization = float64(payloadSlots) / float64(slots)
	}
	// TDMA's only airtime overhead is guard time.
	if payloadSlots > 0 && slotUnits > 1 {
		st.OverheadFrac = float64(cfg.GuardSlots) / float64(slotUnits)
	}
	return st, nil
}
