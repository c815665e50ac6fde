package mac

import (
	"fmt"
	"time"

	"github.com/openspace-project/openspace/internal/exec"
)

// CSMAConfig parameterises the slotted CSMA/CA channel model. Timing
// defaults are scaled for a satellite RF channel, where slot times must
// cover the worst-case propagation across the contention footprint — the
// core reason CSMA/CA overhead is so much larger in space than in Wi-Fi.
type CSMAConfig struct {
	Stations       int           // contending satellites
	SlotTime       time.Duration // one contention slot (≥ max propagation)
	DIFS           int           // idle slots sensed before contention
	SIFS           int           // slots between data and ACK
	CWMin          int           // initial contention window (slots)
	CWMax          int           // cap for binary exponential backoff
	DataSlots      int           // airtime of one data frame, in slots
	AckSlots       int           // airtime of one ACK, in slots
	PerStationRate float64       // packet arrivals per second per station
	MaxRetries     int           // attempts before a packet is dropped
}

// DefaultCSMA returns a CSMA/CA configuration for a LEO inter-satellite RF
// channel: 2 ms slots (≈600 km guard), standard 802.11-style windows.
func DefaultCSMA(stations int, perStationRate float64) CSMAConfig {
	return CSMAConfig{
		Stations:       stations,
		SlotTime:       2 * time.Millisecond,
		DIFS:           3,
		SIFS:           1,
		CWMin:          16,
		CWMax:          1024,
		DataSlots:      10,
		AckSlots:       1,
		PerStationRate: perStationRate,
		MaxRetries:     7,
	}
}

// Validate reports whether the configuration is usable.
func (c CSMAConfig) Validate() error {
	if c.Stations <= 0 {
		return fmt.Errorf("mac: csma: stations %d must be positive", c.Stations)
	}
	if c.SlotTime <= 0 {
		return fmt.Errorf("mac: csma: slot time must be positive")
	}
	if c.CWMin <= 0 || c.CWMax < c.CWMin {
		return fmt.Errorf("mac: csma: contention window [%d,%d] invalid", c.CWMin, c.CWMax)
	}
	if c.DataSlots <= 0 {
		return fmt.Errorf("mac: csma: data airtime must be positive")
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("mac: csma: retries must be non-negative")
	}
	return nil
}

// csmaStation is the per-station contention state machine.
type csmaStation struct {
	queue    []int // arrival slot of each queued packet
	backoff  int   // remaining backoff slots, -1 when not contending
	cw       int   // current contention window
	retries  int
	difsLeft int // idle slots still required before backoff countdown
}

// domainCSMA seeds the CSMA/CA arrival/backoff stream. The MAC
// simulations drew straight from the shared seed value before domains —
// identical arrival patterns across schemes — so adopting per-scheme
// domains moved mac.csv by one regeneration.
var domainCSMA = exec.Domain{Tag: "mac/csma", ID: 121}

// RunCSMA simulates the channel for the given duration and returns
// aggregate statistics. The simulation is deterministic for a fixed seed.
func RunCSMA(cfg CSMAConfig, duration time.Duration, seed int64) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	slots := int(duration / cfg.SlotTime)
	rng := exec.DomainRNG(seed, domainCSMA)
	arrivals := bernoulliArrivals(cfg.Stations, slots, cfg.PerStationRate, cfg.SlotTime, rng)

	stations := make([]csmaStation, cfg.Stations)
	for i := range stations {
		stations[i] = csmaStation{backoff: -1, cw: cfg.CWMin, difsLeft: cfg.DIFS}
	}
	next := make([]int, cfg.Stations) // next arrival index per station

	var st Stats
	var delays []int
	busyUntil := 0   // slot index until which the medium is busy (exclusive)
	busyPayload := 0 // slots of successful payload airtime
	busyTotal := 0   // slots of any busy airtime (data+ack+collisions)
	txSuccess := cfg.DataSlots + cfg.SIFS + cfg.AckSlots

	for t := 0; t < slots; t++ {
		// Deliver arrivals for this slot.
		for s := range stations {
			for next[s] < len(arrivals[s]) && arrivals[s][next[s]] == t {
				stations[s].queue = append(stations[s].queue, t)
				next[s]++
				st.Offered++
			}
		}
		if t < busyUntil {
			continue // medium busy; stations freeze
		}
		// Idle slot: stations with pending packets progress through DIFS and
		// backoff; those reaching zero transmit this slot.
		var transmitters []int
		for s := range stations {
			stn := &stations[s]
			if len(stn.queue) == 0 {
				continue
			}
			if stn.difsLeft > 0 {
				stn.difsLeft--
				continue
			}
			if stn.backoff < 0 {
				stn.backoff = rng.Intn(stn.cw)
			}
			if stn.backoff == 0 {
				transmitters = append(transmitters, s)
			} else {
				stn.backoff--
			}
		}
		switch {
		case len(transmitters) == 1:
			s := transmitters[0]
			stn := &stations[s]
			st.Attempts++
			st.Delivered++
			delays = append(delays, t+txSuccess-stn.queue[0])
			stn.queue = stn.queue[1:]
			stn.cw = cfg.CWMin
			stn.retries = 0
			stn.backoff = -1
			stn.difsLeft = cfg.DIFS
			busyUntil = t + txSuccess
			busyPayload += cfg.DataSlots
			busyTotal += txSuccess
		case len(transmitters) > 1:
			// Collision: every involved frame burns data airtime, then all
			// parties back off with doubled windows.
			for _, s := range transmitters {
				stn := &stations[s]
				st.Attempts++
				st.Collisions++
				stn.retries++
				if stn.retries > cfg.MaxRetries {
					stn.queue = stn.queue[1:] // drop
					stn.retries = 0
					stn.cw = cfg.CWMin
				} else if stn.cw*2 <= cfg.CWMax {
					stn.cw *= 2
				}
				stn.backoff = -1
				stn.difsLeft = cfg.DIFS
			}
			busyUntil = t + cfg.DataSlots
			busyTotal += cfg.DataSlots
		}
	}
	delayStats(&st, delays, cfg.SlotTime)
	if slots > 0 {
		st.Utilization = float64(busyPayload) / float64(slots)
	}
	if busyTotal > 0 {
		st.OverheadFrac = 1 - float64(busyPayload)/float64(busyTotal)
	}
	return st, nil
}
