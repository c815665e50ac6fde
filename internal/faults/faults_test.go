package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

const week = 7 * 24 * 3600.0

func testInputs() Inputs {
	return Inputs{
		Satellites: []string{"sat-0", "sat-1", "sat-2", "sat-3"},
		Grounds:    []string{"gs-0", "gs-1"},
		ISLs:       [][2]string{{"sat-0", "sat-1"}, {"sat-1", "sat-2"}, {"sat-2", "sat-3"}},
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	cfg := Default()
	a, err := Generate(cfg, week, testInputs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, week, testInputs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two generations with the same config differ")
	}
	if len(a.Events) == 0 {
		t.Fatal("a week at default rates should produce events")
	}
	for i, ev := range a.Events {
		if ev.StartS < 0 || ev.StartS >= week {
			t.Errorf("event %d starts outside the horizon: %+v", i, ev)
		}
		if ev.EndS <= ev.StartS {
			t.Errorf("event %d has a non-positive outage: %+v", i, ev)
		}
		if i > 0 && a.Events[i-1].StartS > ev.StartS {
			t.Errorf("events not sorted at %d", i)
		}
	}
}

// TestGenerateDomainIsolation pins the per-class RNG streams: adding ground
// stations must not perturb the satellite failure schedule.
func TestGenerateDomainIsolation(t *testing.T) {
	cfg := Default()
	cfg.StormMTBFS = 0 // storms key off the satellite list only
	satOnly := Inputs{Satellites: testInputs().Satellites}
	full := testInputs()
	a, err := Generate(cfg, week, satOnly)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, week, full)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(tl *Timeline) []Event {
		var out []Event
		for _, ev := range tl.Events {
			if ev.Kind == KindSatFailure {
				out = append(out, ev)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(a), filter(b)) {
		t.Error("adding grounds/ISLs perturbed the satellite failure schedule")
	}
}

func TestGenerateStormsAreCorrelated(t *testing.T) {
	cfg := Config{StormMTBFS: 3600, StormMTTRS: 600, StormFraction: 1, Seed: 7}
	tl, err := Generate(cfg, week, testInputs())
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) == 0 {
		t.Fatal("hourly storms over a week must fire")
	}
	// Fraction 1: every storm downs every satellite at the same instant.
	byStart := make(map[float64]int)
	for _, ev := range tl.Events {
		if ev.Kind != KindStorm {
			t.Fatalf("unexpected kind %v in storm-only config", ev.Kind)
		}
		byStart[ev.StartS]++
	}
	for start, n := range byStart {
		if n != len(testInputs().Satellites) {
			t.Errorf("storm at %.1f downed %d satellites, want all %d",
				start, n, len(testInputs().Satellites))
		}
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(Default(), 0, testInputs()); err == nil {
		t.Error("zero horizon must be rejected")
	}
	bad := Default()
	bad.SatMTTRS = 0
	if _, err := Generate(bad, week, testInputs()); err == nil {
		t.Error("enabled class with zero MTTR must be rejected")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config (everything disabled) invalid: %v", err)
	}
	cases := []Config{
		{SatMTBFS: -1},
		{ISLMTBFS: 10, ISLMTTRS: 0},
		{GroundMTBFS: 10, GroundMTTRS: -1},
		{StormMTBFS: 10, StormMTTRS: 5, StormFraction: 0},
		{StormMTBFS: 10, StormMTTRS: 5, StormFraction: 1.5},
		{StormMTBFS: 10, StormMTTRS: 5, StormFraction: math.NaN()},
		{SatMTBFS: 10, SatMTTRS: math.NaN()},
		{ISLMTBFS: math.NaN(), ISLMTTRS: 5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestScale(t *testing.T) {
	base := Default()
	double := base.Scale(2)
	if double.SatMTBFS != base.SatMTBFS/2 || double.ISLMTBFS != base.ISLMTBFS/2 {
		t.Error("intensity 2 must halve MTBFs")
	}
	if double.SatMTTRS != base.SatMTTRS {
		t.Error("intensity must not change repair times")
	}
	off := base.Scale(0)
	if off.Enabled() {
		t.Error("intensity 0 must disable every class")
	}
	tl, err := Generate(off, week, testInputs())
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != 0 {
		t.Errorf("disabled config generated %d events", len(tl.Events))
	}
}

func TestCheckIntensity(t *testing.T) {
	for _, in := range []float64{0, 0.5, 1, 4, 1e6} {
		if err := CheckIntensity(in); err != nil {
			t.Errorf("CheckIntensity(%v) = %v, want nil", in, err)
		}
	}
	for _, in := range []float64{-2, -1e-9, math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := CheckIntensity(in); err == nil || !strings.Contains(err.Error(), "must be non-negative and finite") {
			t.Errorf("CheckIntensity(%v) = %v, want a non-negative-and-finite error", in, err)
		}
	}
}

func TestInputsFromSnapshot(t *testing.T) {
	nodes := []topo.Node{
		{ID: "sat-b", Kind: topo.KindSatellite},
		{ID: "sat-a", Kind: topo.KindSatellite},
		{ID: "sat-c", Kind: topo.KindSatellite},
		{ID: "gs-0", Kind: topo.KindGroundStation},
		{ID: "u-0", Kind: topo.KindUser},
	}
	const satB, satA, satC, gs0, u0 = 0, 1, 2, 3, 4 // positions in nodes
	edges := []topo.Edge{
		{From: satA, To: satB, Kind: topo.LinkISLLaser},
		{From: satB, To: satA, Kind: topo.LinkISLLaser},
		{From: satC, To: satA, Kind: topo.LinkISLRF}, // one direction only
		{From: satB, To: satC, Kind: topo.LinkISLRF}, // one direction only
		{From: satA, To: gs0, Kind: topo.LinkGround},
		{From: u0, To: satA, Kind: topo.LinkAccess},
	}
	s, err := topo.NewSnapshot(0, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	in := InputsFromSnapshot(s)
	if !reflect.DeepEqual(in.Satellites, []string{"sat-a", "sat-b", "sat-c"}) {
		t.Errorf("satellites = %v", in.Satellites)
	}
	if !reflect.DeepEqual(in.Grounds, []string{"gs-0"}) {
		t.Errorf("grounds = %v", in.Grounds)
	}
	// An ISL is deduplicated across both directions and named From < To
	// whichever direction exists; ground/access links are not maskable
	// ISLs.
	if !reflect.DeepEqual(in.ISLs, [][2]string{{"sat-a", "sat-b"}, {"sat-a", "sat-c"}, {"sat-b", "sat-c"}}) {
		t.Errorf("ISLs = %v", in.ISLs)
	}
}

func TestMaskRefcounting(t *testing.T) {
	m := NewMask()
	storm := Event{Kind: KindStorm, Node: "sat-0"}
	hard := Event{Kind: KindSatFailure, Node: "sat-0"}
	m.Apply(storm)
	m.Apply(hard)
	m.Clear(storm)
	if !m.NodeDown("sat-0") {
		t.Error("node with one of two overlapping outages cleared came back up")
	}
	m.Clear(hard)
	if m.NodeDown("sat-0") || !m.Empty() {
		t.Error("node with all outages cleared still down")
	}

	flap := Event{Kind: KindISLFlap, From: "sat-1", To: "sat-0"}
	m.Apply(flap)
	if !m.EdgeDown("sat-0", "sat-1") || !m.EdgeDown("sat-1", "sat-0") {
		t.Error("edge fault must block both directions")
	}
	if n, e := m.Down(); n != 0 || e != 1 {
		t.Errorf("Down() = %d,%d want 0,1", n, e)
	}
	if !m.PathDown([]string{"sat-0", "sat-1", "sat-2"}) {
		t.Error("path through a failed hop must be down")
	}
	if m.PathDown([]string{"sat-2", "sat-3"}) {
		t.Error("path avoiding all faults reported down")
	}
	m.Clear(flap)
	if !m.Empty() {
		t.Error("mask not empty after clearing everything")
	}
}

// TestMaskView pins the memo: a mask with nothing down hands back the
// snapshot itself, a view is shared until the next transition, and every
// transition yields a fresh overlay of the new state.
func TestMaskView(t *testing.T) {
	s := recoverySnapshot(t)
	var none *Mask
	if none.View(s) != s {
		t.Error("nil mask must return the snapshot itself")
	}
	m := NewMask()
	if m.View(s) != s {
		t.Error("empty mask must return the snapshot itself")
	}
	var prev *topo.Snapshot
	check := func(step string) {
		t.Helper()
		v := m.View(s)
		if v == s || v == prev {
			t.Fatalf("%s: want a fresh overlay", step)
		}
		if m.View(s) != v {
			t.Errorf("%s: repeated View built a second overlay", step)
		}
		want := s.Overlay(m).Index()
		if !reflect.DeepEqual(v.Index().Nodes, want.Nodes) || !reflect.DeepEqual(v.Index().Edges, want.Edges) {
			t.Errorf("%s: view differs from the overlay of the current mask", step)
		}
		prev = v
	}
	sat := Event{Kind: KindSatFailure, Node: "a"}
	flap := Event{Kind: KindISLFlap, From: "b", To: "dst"}
	m.Apply(sat)
	check("apply sat")
	m.Apply(flap)
	check("apply flap")
	m.Clear(sat)
	check("clear sat")
	m.Clear(flap)
	if m.View(s) != s {
		t.Error("mask emptied by repairs must return the snapshot itself")
	}
}

func TestMaskAt(t *testing.T) {
	tl := &Timeline{HorizonS: 100, Events: []Event{
		{Kind: KindSatFailure, Node: "sat-0", StartS: 10, EndS: 20},
		{Kind: KindISLFlap, From: "sat-1", To: "sat-2", StartS: 15, EndS: 40},
	}}
	if !tl.MaskAt(5).Empty() {
		t.Error("mask before any fault must be empty")
	}
	m := tl.MaskAt(16)
	if !m.NodeDown("sat-0") || !m.EdgeDown("sat-2", "sat-1") {
		t.Error("mask at 16 missing active faults")
	}
	if m = tl.MaskAt(20); m.NodeDown("sat-0") {
		t.Error("outage interval is half-open: repaired exactly at EndS")
	}
	if !tl.MaskAt(39).EdgeDown("sat-1", "sat-2") {
		t.Error("flap still active at 39")
	}
	if !tl.MaskAt(50).Empty() {
		t.Error("mask after all repairs must be empty")
	}
}

func TestDrive(t *testing.T) {
	tl := &Timeline{HorizonS: 100, Events: []Event{
		{Kind: KindSatFailure, Node: "sat-0", StartS: 5, EndS: 8},
		{Kind: KindGroundOutage, Node: "gs-0", StartS: 7, EndS: 200},
	}}
	e := sim.NewEngine()
	m := NewMask()
	var transitions []string
	onChange := func(e *sim.Engine, ev Event, down bool) {
		state := "up"
		if down {
			state = "down"
		}
		transitions = append(transitions, ev.Kind.String()+":"+state)
	}
	if err := tl.Drive(e, m, onChange); err != nil {
		t.Fatal(err)
	}
	e.Run(tl.HorizonS)
	want := []string{"sat-failure:down", "ground-outage:down", "sat-failure:up"}
	if !reflect.DeepEqual(transitions, want) {
		t.Errorf("transitions = %v, want %v", transitions, want)
	}
	// gs-0's repair lies beyond the horizon: never observed.
	if !m.NodeDown("gs-0") || m.NodeDown("sat-0") {
		t.Error("final mask wrong: want only gs-0 down")
	}
	if err := tl.Drive(e, nil, nil); err == nil {
		t.Error("nil mask must be rejected")
	}
}
