package ground

import (
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

func newTestStation(t *testing.T) *Station {
	t.Helper()
	s, err := NewStation("gs-1", "acme", geo.LatLon{Lat: 47.6, Lon: -122.3}, 1e9, 0.10, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStationValidation(t *testing.T) {
	pos := geo.LatLon{Lat: 0, Lon: 0}
	cases := []struct {
		id, provider    string
		p               geo.LatLon
		backhaul, price float64
		surge           float64
	}{
		{"", "p", pos, 1e9, 0.1, 1},
		{"id", "", pos, 1e9, 0.1, 1},
		{"id", "p", geo.LatLon{Lat: 99, Lon: 0}, 1e9, 0.1, 1},
		{"id", "p", pos, 0, 0.1, 1},
		{"id", "p", pos, 1e9, -0.1, 1},
		{"id", "p", pos, 1e9, 0.1, -1},
	}
	for i, c := range cases {
		if _, err := NewStation(c.id, c.provider, c.p, c.backhaul, c.price, c.surge); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := NewStation("id", "p", pos, 1e9, 0.1, 1); err != nil {
		t.Errorf("valid station rejected: %v", err)
	}
}

func TestHomeTrafficPaysBasePrice(t *testing.T) {
	s := newTestStation(t)
	offer, err := s.Admit("acme", 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !offer.Home || offer.PricePerGB != 0.10 {
		t.Errorf("home offer = %+v", offer)
	}
}

func TestVisitorSurcharge(t *testing.T) {
	s := newTestStation(t)
	// Idle station: visitors pay base price.
	o := s.Quote("rival", 0)
	if o.Home || o.PricePerGB != 0.10 {
		t.Errorf("idle visitor quote = %+v", o)
	}
	// Load the station to ~50% of a second of backlog with home traffic.
	if _, err := s.Admit("acme", 62_500_000, 0); err != nil { // 0.5e9 bits
		t.Fatal(err)
	}
	loaded := s.Quote("rival", 0)
	want := 0.10 * (1 + 2.0*0.5)
	if !almost(loaded.PricePerGB, want) {
		t.Errorf("loaded visitor price = %v, want %v", loaded.PricePerGB, want)
	}
	// Home quote never surcharges.
	if h := s.Quote("acme", 0); h.PricePerGB != 0.10 {
		t.Errorf("home price moved: %v", h.PricePerGB)
	}
}

func TestHomePriority(t *testing.T) {
	s := newTestStation(t)
	// Visitor backlog does not delay home traffic.
	if _, err := s.Admit("rival", 125_000_000, 0); err != nil { // 1e9 bits = 1 s
		t.Fatal(err)
	}
	home := s.Quote("acme", 0)
	visitor := s.Quote("rival", 0)
	if home.QueueDelayS != 0 {
		t.Errorf("home delay behind visitor backlog = %v, want 0", home.QueueDelayS)
	}
	if !almost(visitor.QueueDelayS, 1.0) {
		t.Errorf("visitor delay = %v, want 1", visitor.QueueDelayS)
	}
	// Home backlog delays everyone.
	if _, err := s.Admit("acme", 125_000_000, 0); err != nil {
		t.Fatal(err)
	}
	if d := s.Quote("acme", 0).QueueDelayS; !almost(d, 1.0) {
		t.Errorf("home delay behind home backlog = %v, want 1", d)
	}
	if d := s.Quote("rival", 0).QueueDelayS; !almost(d, 2.0) {
		t.Errorf("visitor delay behind both = %v, want 2", d)
	}
}

func TestQueueDrains(t *testing.T) {
	s := newTestStation(t)
	if _, err := s.Admit("acme", 125_000_000, 0); err != nil { // 1 s of backlog
		t.Fatal(err)
	}
	if u := s.queue.utilization(0); !almost(u, 1.0) {
		t.Errorf("utilization at enqueue = %v", u)
	}
	if u := s.queue.utilization(0.5); !almost(u, 0.5) {
		t.Errorf("utilization after 0.5 s = %v", u)
	}
	if u := s.queue.utilization(2); u != 0 {
		t.Errorf("utilization after drain = %v", u)
	}
	// Time running backwards is ignored.
	if u := s.queue.utilization(1); u != 0 {
		t.Errorf("utilization must not resurrect: %v", u)
	}
}

func TestQueueVisitorDrainsAfterHome(t *testing.T) {
	s := newTestStation(t)
	s.Admit("rival", 62_500_000, 0) // 0.5 s visitor
	s.Admit("acme", 62_500_000, 0)  // 0.5 s home
	// After 0.5 s the home backlog is gone but the visitor backlog is
	// untouched.
	if d := s.Quote("acme", 0.5).QueueDelayS; d != 0 {
		t.Errorf("home delay after home drain = %v", d)
	}
	if d := s.Quote("rival", 0.5).QueueDelayS; !almost(d, 0.5) {
		t.Errorf("visitor backlog should remain: %v", d)
	}
	// After 1 s everything is drained.
	if d := s.Quote("rival", 1).QueueDelayS; d != 0 {
		t.Errorf("visitor delay after full drain = %v", d)
	}
}

func TestMeterUsage(t *testing.T) {
	s := newTestStation(t)
	s.Admit("acme", 100, 0)
	s.Admit("rival", 50, 0)
	s.Admit("rival", 25, 0)
	if u := s.meter.byProvider; u["acme"] != 100 || u["rival"] != 75 {
		t.Errorf("usage = %v", u)
	}
}

func TestAdmitValidation(t *testing.T) {
	s := newTestStation(t)
	if _, err := s.Admit("acme", 0, 0); err == nil {
		t.Error("zero bytes should fail")
	}
	if _, err := s.Admit("acme", -5, 0); err == nil {
		t.Error("negative bytes should fail")
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
