package sim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/openspace-project/openspace/internal/geo"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func(*Engine) { order = append(order, 3) })
	e.Schedule(1, func(*Engine) { order = append(order, 1) })
	e.Schedule(2, func(*Engine) { order = append(order, 2) })
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want advanced to horizon", e.Now())
	}
	if e.Processed != 3 {
		t.Errorf("processed = %d", e.Processed)
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(*Engine) { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestEngineCascading(t *testing.T) {
	// Events scheduling further events.
	e := NewEngine()
	count := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		count++
		if count < 5 {
			en.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run(100)
	if count != 5 {
		t.Errorf("cascade count = %d", count)
	}
	if e.Now() != 100 {
		t.Errorf("now = %v", e.Now())
	}
}

func TestEngineHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(50, func(*Engine) { ran = true })
	e.Run(10)
	if ran {
		t.Error("event past horizon ran")
	}
	if e.Now() != 10 || e.events.Len() != 1 {
		t.Errorf("now=%v pending=%d", e.Now(), e.events.Len())
	}
	// Resume picks it up.
	e.Run(100)
	if !ran {
		t.Error("event not delivered on resume")
	}
}

func TestEngineEventBudget(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 3
	count := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		count++
		en.After(1, tick)
	}
	e.After(1, tick)
	e.Run(100)
	if count != 3 {
		t.Errorf("budgeted run delivered %d events, want 3", count)
	}
	if !e.Exhausted() {
		t.Error("Exhausted() = false after budget spent")
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want left at last delivered event", e.Now())
	}
	if e.events.Len() != 1 {
		t.Errorf("pending = %d, want the undelivered event still queued", e.events.Len())
	}
	// Raising the budget resumes exactly where the run stopped.
	e.MaxEvents = 5
	e.Run(100)
	if count != 5 || !e.Exhausted() {
		t.Errorf("resumed run delivered %d events (exhausted=%v), want 5/true", count, e.Exhausted())
	}

	// A run that drains its queue on exactly the budget completed.
	drained := NewEngine()
	drained.MaxEvents = 3
	for i := 0; i < 3; i++ {
		drained.Schedule(float64(i), func(*Engine) {})
	}
	drained.Run(100)
	if drained.Processed != 3 || drained.Exhausted() || drained.Now() != 100 {
		t.Errorf("drained on budget: processed=%d exhausted=%v now=%v, want 3/false/100",
			drained.Processed, drained.Exhausted(), drained.Now())
	}

	// So does one that reaches its horizon on exactly the budget: the
	// event past the horizon was never refused, and the clock reaches it.
	horizon := NewEngine()
	horizon.MaxEvents = 3
	for _, at := range []float64{0, 100, 200, 300} {
		horizon.Schedule(at, func(*Engine) {})
	}
	horizon.Run(250)
	if horizon.Processed != 3 || horizon.Exhausted() || horizon.Now() != 250 {
		t.Errorf("horizon on budget: processed=%d exhausted=%v now=%v, want 3/false/250",
			horizon.Processed, horizon.Exhausted(), horizon.Now())
	}
	if horizon.events.Len() != 1 {
		t.Errorf("horizon on budget: pending = %d, want the event past the horizon queued", horizon.events.Len())
	}
	// Past the horizon the budget does refuse it.
	horizon.Run(400)
	if horizon.Processed != 3 || !horizon.Exhausted() || horizon.Now() != 250 {
		t.Errorf("past horizon: processed=%d exhausted=%v now=%v, want 3/true/250",
			horizon.Processed, horizon.Exhausted(), horizon.Now())
	}
}

func TestEngineZeroBudgetUnlimited(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Schedule(float64(i), func(*Engine) {})
	}
	e.Run(100)
	if e.Processed != 50 {
		t.Errorf("processed = %d, want all 50 with zero budget", e.Processed)
	}
	if e.Exhausted() {
		t.Error("Exhausted() = true with zero budget")
	}
}

func TestScheduleValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(1, nil); err == nil {
		t.Error("nil fn should fail")
	}
	e.Schedule(5, func(*Engine) {})
	e.Run(10)
	if err := e.Schedule(3, func(*Engine) {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
	if err := e.After(-1, func(*Engine) {}); err == nil {
		t.Error("negative delay should fail")
	}
}

// TestScheduleRejectsNaN pins that a NaN time never enters the queue:
// NaN compares false against everything, so a plain "before now" check
// would accept it and the event would run at time NaN.
func TestScheduleRejectsNaN(t *testing.T) {
	e := NewEngine()
	ran := false
	if err := e.Schedule(math.NaN(), func(*Engine) { ran = true }); err == nil {
		t.Error("Schedule(NaN) should fail")
	}
	if err := e.After(math.NaN(), func(*Engine) { ran = true }); err == nil {
		t.Error("After(NaN) should fail")
	}
	e.Run(math.Inf(1))
	if ran || e.Processed != 0 {
		t.Errorf("a NaN-time event ran (processed %d)", e.Processed)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should zero out")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.Count() != 5 || h.Mean() != 3 || h.Min() != 1 || h.Max() != 5 {
		t.Errorf("stats wrong: %v", &h)
	}
	if h.Quantile(0.5) != 3 {
		t.Errorf("median = %v", h.Quantile(0.5))
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 5 {
		t.Errorf("extreme quantiles: %v %v", h.Quantile(0), h.Quantile(1))
	}
	// Stddev of 1..5 is sqrt(2).
	if math.Abs(h.Stddev()-math.Sqrt2) > 1e-12 {
		t.Errorf("stddev = %v", h.Stddev())
	}
	// Adding after querying re-sorts correctly.
	h.Add(0)
	if h.Min() != 0 {
		t.Errorf("min after late add = %v", h.Min())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(1, 10, 0.5)
	s.Append(2, 20, 1.0)
	if len(s.Points) != 2 || s.Points[1].Y != 20 || s.Points[0].YErr != 0.5 {
		t.Errorf("series = %+v", s)
	}
}

func TestCityUsersNearCities(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	us := CityUsers(500, 50, rng)
	cities := WorldCities()
	for _, u := range us {
		if !u.Valid() {
			t.Fatalf("invalid user %v", u)
		}
		nearest := math.Inf(1)
		for _, c := range cities {
			if d := geoDist(u, c.Pos); d < nearest {
				nearest = d
			}
		}
		if nearest > 51 {
			t.Fatalf("user %v is %v km from any city", u, nearest)
		}
	}
	// Population weighting: Tokyo (37.4M) should receive far more users
	// than Longyearbyen (0.01M).
	tokyo, lyb := 0, 0
	for _, u := range us {
		if geoDist(u, cities[0].Pos) < 51 {
			tokyo++
		}
		if geoDist(u, cities[len(cities)-1].Pos) < 51 {
			lyb++
		}
	}
	if tokyo <= lyb {
		t.Errorf("tokyo %d vs longyearbyen %d users; weighting broken", tokyo, lyb)
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	times, err := PoissonArrivals(10, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Rate 10/s over 1000 s → ~10000 events ±5%.
	if len(times) < 9000 || len(times) > 11000 {
		t.Errorf("got %d events, want ~10000", len(times))
	}
	prev := -1.0
	for _, tt := range times {
		if tt <= prev || tt < 0 || tt >= 1000 {
			t.Fatal("arrivals not increasing within range")
		}
		prev = tt
	}
	if _, err := PoissonArrivals(0, 10, rng); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := PoissonArrivals(1, -1, rng); err == nil {
		t.Error("negative duration should fail")
	}
}

func TestFlowSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var minSeen, maxSeen int64 = 1 << 62, 0
	for i := 0; i < 10000; i++ {
		v := FlowSizeBytes(1000, 1e9, 1.2, rng)
		if v < 1000 || v > 1e9 {
			t.Fatalf("flow size %d out of bounds", v)
		}
		if v < minSeen {
			minSeen = v
		}
		if v > maxSeen {
			maxSeen = v
		}
	}
	if maxSeen < 100*minSeen {
		t.Errorf("distribution not heavy-tailed: min %d max %d", minSeen, maxSeen)
	}
	// Degenerate parameters fall back to the minimum.
	if FlowSizeBytes(0, 10, 1, rng) != 0 {
		t.Error("degenerate min should return min")
	}
	if FlowSizeBytes(10, 5, 1, rng) != 10 {
		t.Error("max<min should return min")
	}
}

func TestFlowSizeBytesEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// min == max collapses the distribution to a point.
	for i := 0; i < 100; i++ {
		if v := FlowSizeBytes(4096, 4096, 1.2, rng); v != 4096 {
			t.Fatalf("min==max drew %d, want 4096", v)
		}
	}
	// Alpha near zero makes the tail so heavy nearly every draw clamps to
	// the maximum, but never beyond it.
	atMax := 0
	for i := 0; i < 1000; i++ {
		v := FlowSizeBytes(1000, 1e6, 1e-9, rng)
		if v < 1000 || v > 1e6 {
			t.Fatalf("alpha→0 drew %d, out of [1000, 1e6]", v)
		}
		if v == 1e6 {
			atMax++
		}
	}
	if atMax < 990 {
		t.Errorf("alpha→0 clamped to max only %d/1000 times", atMax)
	}
	// Non-positive alpha is degenerate: the minimum, not a panic.
	if v := FlowSizeBytes(1000, 1e6, 0, rng); v != 1000 {
		t.Errorf("alpha=0 drew %d, want min", v)
	}
	if v := FlowSizeBytes(1000, 1e6, -1, rng); v != 1000 {
		t.Errorf("alpha<0 drew %d, want min", v)
	}
}

func TestPoissonArrivalsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Zero duration is a valid empty window.
	times, err := PoissonArrivals(5, 0, rng)
	if err != nil {
		t.Fatalf("zero duration: %v", err)
	}
	if len(times) != 0 {
		t.Errorf("zero duration produced %d arrivals", len(times))
	}
	if _, err := PoissonArrivals(-2, 10, rng); err == nil {
		t.Error("negative rate should fail")
	}
	// A tiny rate over a short window usually yields no arrivals — and
	// must never error.
	for i := 0; i < 20; i++ {
		if _, err := PoissonArrivals(1e-9, 1, rng); err != nil {
			t.Fatalf("tiny rate errored: %v", err)
		}
	}
}

func geoDist(a, b geo.LatLon) float64 { return geo.SurfaceDistanceKm(a, b) }
