// Package ground models OpenSpace's shared ground infrastructure (§2.1 of
// the paper): independently owned ground stations with reliable Internet
// backhaul that sell gateway service to any provider's satellites on a
// pay-per-use basis — "these ground stations build on the
// ground-station-as-a-service model … except that in OpenSpace ground
// stations could be owned by independent entities, which may price their
// services differently".
//
// The model captures the two behaviours the paper calls out:
//
//   - Metering: stations "should measure traffic through their gateways from
//     users associated with different providers" (§3) — the Meter type keeps
//     the per-provider byte counts that feed the economics ledgers.
//   - Home priority and visitor tariffs: a loaded station "may prioritize
//     traffic coming from its users, and may place higher tariffs on
//     'visitor' traffic" (§2.2) — the two-class Queue serves home traffic
//     first, and PriceQuote surcharges visitors as utilisation grows.
package ground

import (
	"errors"
	"fmt"
	"sync"

	"github.com/openspace-project/openspace/internal/geo"
)

// Station is one gateway ground station.
type Station struct {
	ID       string
	Provider string // owning firm
	Pos      geo.LatLon
	// BackhaulBps is the station's Internet backhaul capacity.
	BackhaulBps float64
	// BasePricePerGB is the gateway fee charged to the owner's own traffic.
	BasePricePerGB float64
	// VisitorSurge scales the visitor surcharge with utilisation: a visitor
	// pays BasePricePerGB · (1 + VisitorSurge·utilisation).
	VisitorSurge float64

	mu    sync.Mutex
	meter Meter
	queue Queue
}

// NewStation creates a gateway station.
func NewStation(id, provider string, pos geo.LatLon, backhaulBps, basePricePerGB, visitorSurge float64) (*Station, error) {
	if id == "" || provider == "" {
		return nil, errors.New("ground: station needs id and provider")
	}
	if !pos.Valid() {
		return nil, fmt.Errorf("ground: invalid position %v", pos)
	}
	if backhaulBps <= 0 {
		return nil, fmt.Errorf("ground: backhaul %.0f bps must be positive", backhaulBps)
	}
	if basePricePerGB < 0 || visitorSurge < 0 {
		return nil, errors.New("ground: prices must be non-negative")
	}
	return &Station{
		ID: id, Provider: provider, Pos: pos,
		BackhaulBps: backhaulBps, BasePricePerGB: basePricePerGB, VisitorSurge: visitorSurge,
		meter: Meter{byProvider: make(map[string]int64)},
		queue: Queue{rateBps: backhaulBps},
	}, nil
}

// Offer is a priced gateway admission for a chunk of traffic.
type Offer struct {
	PricePerGB  float64
	QueueDelayS float64 // expected queueing delay for this traffic class
	Home        bool
}

// Quote prices gateway service for trafficProvider at time t, without
// admitting anything.
func (s *Station) Quote(trafficProvider string, t float64) Offer {
	s.mu.Lock()
	defer s.mu.Unlock()
	home := trafficProvider == s.Provider
	price := s.BasePricePerGB
	if !home {
		price *= 1 + s.VisitorSurge*s.queue.utilization(t)
	}
	return Offer{
		PricePerGB:  price,
		QueueDelayS: s.queue.delayS(t, home),
		Home:        home,
	}
}

// Admit meters and enqueues bytes of traffic from trafficProvider arriving
// at time t, returning the offer that applied.
func (s *Station) Admit(trafficProvider string, bytes int64, t float64) (Offer, error) {
	if bytes <= 0 {
		return Offer{}, fmt.Errorf("ground: bytes %d must be positive", bytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	home := trafficProvider == s.Provider
	price := s.BasePricePerGB
	if !home {
		price *= 1 + s.VisitorSurge*s.queue.utilization(t)
	}
	offer := Offer{PricePerGB: price, QueueDelayS: s.queue.delayS(t, home), Home: home}
	s.meter.record(trafficProvider, bytes)
	s.queue.enqueue(t, float64(bytes*8), home)
	return offer, nil
}

// Meter tracks per-provider traffic through a gateway.
type Meter struct {
	byProvider map[string]int64
}

func (m *Meter) record(provider string, bytes int64) {
	m.byProvider[provider] += bytes
}

// Queue is a fluid two-class priority queue: home traffic drains strictly
// before visitor traffic, both at the backhaul rate. Backlogs decay linearly
// between events; all state is referenced to the last update time.
type Queue struct {
	rateBps     float64
	lastT       float64
	homeBits    float64
	visitorBits float64
}

// advance drains the queue up to time t.
func (q *Queue) advance(t float64) {
	if t <= q.lastT {
		return
	}
	budget := q.rateBps * (t - q.lastT)
	q.lastT = t
	if q.homeBits >= budget {
		q.homeBits -= budget
		return
	}
	budget -= q.homeBits
	q.homeBits = 0
	if q.visitorBits >= budget {
		q.visitorBits -= budget
		return
	}
	q.visitorBits = 0
}

func (q *Queue) enqueue(t float64, bits float64, home bool) {
	q.advance(t)
	if home {
		q.homeBits += bits
	} else {
		q.visitorBits += bits
	}
}

// delayS returns the queueing delay a new arrival of the given class would
// see at t: home traffic waits only behind home backlog; visitor traffic
// waits behind everything.
func (q *Queue) delayS(t float64, home bool) float64 {
	q.advance(t)
	if home {
		return q.homeBits / q.rateBps
	}
	return (q.homeBits + q.visitorBits) / q.rateBps
}

// utilization maps the total backlog into [0,1): the fraction of the next
// second of backhaul already spoken for, saturating at 1.
func (q *Queue) utilization(t float64) float64 {
	q.advance(t)
	u := (q.homeBits + q.visitorBits) / q.rateBps
	if u > 1 {
		return 1
	}
	return u
}
