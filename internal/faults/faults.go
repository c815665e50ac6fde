// Package faults is the deterministic fault-injection layer: it generates
// reproducible fault timelines (satellite hard failures, ISL laser-terminal
// flaps, ground-station weather outages, and correlated solar-storm mass
// events), maintains the set of currently failed elements as a cheap
// overlay mask on topology snapshots, and drives dynamic recovery — fast
// reroute onto precomputed edge-disjoint backups, falling back to a full
// recompute on the degraded topology — through the discrete-event engine.
//
// The paper's §4 redundancy claim ("operational failures, load balancing,
// and range cutoffs … can be handled efficiently") is only testable with a
// notion of *when* failures happen and whether they heal; this package is
// the substrate every time-varying robustness scenario builds on. Every
// timeline is a pure function of (Config, horizon, element list): per-
// element RNG streams are derived from exec.Seed domain tags, so the same
// configuration produces byte-identical fault schedules at any worker
// count and regardless of element iteration order.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/topo"
)

// RNG domains: each fault class draws an independent stream, so adding a
// ground station can never perturb the satellite failure schedule. The
// IDs predate the tags — every committed fault schedule keeps its stream.
var (
	domainSat    = exec.Domain{Tag: "faults/satfail", ID: 101}
	domainISL    = exec.Domain{Tag: "faults/islflap", ID: 102}
	domainGround = exec.Domain{Tag: "faults/ground", ID: 103}
	domainStorm  = exec.Domain{Tag: "faults/storm", ID: 104}
)

// Kind labels a fault class.
type Kind int

// Fault kinds.
const (
	// KindSatFailure is a satellite hard failure: the node and every
	// incident link disappear until repair.
	KindSatFailure Kind = iota
	// KindISLFlap is a laser-terminal (or RF chain) flap on one
	// inter-satellite link: the undirected edge disappears briefly.
	KindISLFlap
	// KindGroundOutage is a ground-station weather outage: the station
	// node disappears until the weather clears.
	KindGroundOutage
	// KindStorm marks a satellite outage belonging to a correlated
	// solar-storm mass event rather than an independent failure.
	KindStorm
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSatFailure:
		return "sat-failure"
	case KindISLFlap:
		return "isl-flap"
	case KindGroundOutage:
		return "ground-outage"
	case KindStorm:
		return "solar-storm"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fault interval: the target element is down during
// [StartS, EndS). Node faults set Node; edge faults set From/To
// (undirected).
type Event struct {
	Kind     Kind
	Node     string
	From, To string
	StartS   float64
	EndS     float64
}

// Config parameterises timeline generation. Each element class fails as a
// renewal process: up-times are exponential with the class MTBF, repair
// times exponential with the class MTTR. A zero MTBF disables the class,
// so the zero Config injects nothing.
type Config struct {
	// SatMTBFS / SatMTTRS govern independent satellite hard failures.
	SatMTBFS, SatMTTRS float64
	// ISLMTBFS / ISLMTTRS govern per-link laser-terminal flaps.
	ISLMTBFS, ISLMTTRS float64
	// GroundMTBFS / GroundMTTRS govern ground-station weather outages.
	GroundMTBFS, GroundMTTRS float64
	// StormMTBFS is the fleet-wide mean time between solar storms; each
	// storm takes down StormFraction of the satellites (each drawn
	// independently) for exponential StormMTTRS outages.
	StormMTBFS, StormMTTRS float64
	StormFraction          float64
	// Seed roots every per-element RNG stream.
	Seed int64
}

// Default returns a reference fault environment for an Iridium-scale
// fleet: rare hard failures, frequent short ISL flaps, occasional long
// weather outages, and a rare storm that downs 30 % of the fleet at once.
func Default() Config {
	return Config{
		SatMTBFS: 24 * 3600, SatMTTRS: 20 * 60,
		ISLMTBFS: 12 * 3600, ISLMTTRS: 60,
		GroundMTBFS: 12 * 3600, GroundMTTRS: 30 * 60,
		StormMTBFS: 48 * 3600, StormMTTRS: 15 * 60,
		StormFraction: 0.3,
		Seed:          1,
	}
}

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.SatMTBFS > 0 || c.ISLMTBFS > 0 || c.GroundMTBFS > 0 || c.StormMTBFS > 0
}

// Validate rejects configurations that cannot generate a well-formed
// timeline.
func (c Config) Validate() error {
	check := func(name string, mtbf, mttr float64) error {
		if !(mtbf >= 0) || !(mttr >= 0) {
			return fmt.Errorf("faults: %s MTBF/MTTR must be non-negative", name)
		}
		if mtbf > 0 && mttr <= 0 {
			return fmt.Errorf("faults: %s enabled (MTBF %.0f s) but MTTR is zero", name, mtbf)
		}
		return nil
	}
	if err := check("satellite", c.SatMTBFS, c.SatMTTRS); err != nil {
		return err
	}
	if err := check("ISL", c.ISLMTBFS, c.ISLMTTRS); err != nil {
		return err
	}
	if err := check("ground", c.GroundMTBFS, c.GroundMTTRS); err != nil {
		return err
	}
	if err := check("storm", c.StormMTBFS, c.StormMTTRS); err != nil {
		return err
	}
	if c.StormMTBFS > 0 && !(c.StormFraction > 0 && c.StormFraction <= 1) {
		return fmt.Errorf("faults: storm fraction %.2f must be in (0,1]", c.StormFraction)
	}
	return nil
}

// CheckIntensity rejects a fault-rate multiplier Scale cannot honour. A
// negative or +Inf one would zero every MTBF and silently run fault-free;
// NaN would poison them.
func CheckIntensity(intensity float64) error {
	if !(intensity >= 0) || math.IsInf(intensity, 1) {
		return fmt.Errorf("faults: intensity %v must be non-negative and finite", intensity)
	}
	return nil
}

// Scale returns the config with every failure rate multiplied by
// intensity (MTBFs divided; repair times unchanged). intensity 0 disables
// all classes — the knob the availability experiment sweeps.
func (c Config) Scale(intensity float64) Config {
	if intensity <= 0 {
		c.SatMTBFS, c.ISLMTBFS, c.GroundMTBFS, c.StormMTBFS = 0, 0, 0, 0
		return c
	}
	c.SatMTBFS /= intensity
	c.ISLMTBFS /= intensity
	c.GroundMTBFS /= intensity
	c.StormMTBFS /= intensity
	return c
}

// Inputs names the maskable elements of a topology, in the deterministic
// order their RNG streams are indexed by. Build one with
// InputsFromSnapshot or assemble directly (IDs must be sorted and ISL
// endpoints ordered From < To).
type Inputs struct {
	Satellites []string
	Grounds    []string
	ISLs       [][2]string
}

// InputsFromSnapshot collects the satellites, ground stations and
// undirected ISLs of a snapshot in sorted order.
func InputsFromSnapshot(s *topo.Snapshot) Inputs {
	var in Inputs
	ix := s.Index()
	for i := range ix.Nodes { // sorted
		switch ix.Nodes[i].Kind {
		case topo.KindSatellite:
			in.Satellites = append(in.Satellites, ix.Nodes[i].ID)
		case topo.KindGroundStation:
			in.Grounds = append(in.Grounds, ix.Nodes[i].ID)
		}
	}
	for _, e := range ix.Edges {
		if e.Kind == topo.LinkISLRF || e.Kind == topo.LinkISLLaser {
			in.ISLs = append(in.ISLs, [2]string{ix.Nodes[min(e.From, e.To)].ID, ix.Nodes[max(e.From, e.To)].ID})
		}
	}
	slices.SortFunc(in.ISLs, func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
	in.ISLs = slices.Compact(in.ISLs)
	return in
}

// Timeline is a deterministic fault schedule over [0, HorizonS).
type Timeline struct {
	HorizonS float64
	// Events are sorted by start time (ties broken by kind and target).
	Events []Event
}

// Generate builds the fault timeline for the given elements over
// [0, horizonS). Each element's failure process draws from its own RNG
// stream (exec.Seed with a per-class domain tag and the element's index),
// so the timeline is identical however the caller parallelises around it.
func Generate(cfg Config, horizonS float64, in Inputs) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if horizonS <= 0 {
		return nil, fmt.Errorf("faults: horizon %.1f must be positive", horizonS)
	}
	tl := &Timeline{HorizonS: horizonS}

	// Independent renewal processes per element.
	renewal := func(domain exec.Domain, idx int, mtbf, mttr float64, mk func(start, end float64) Event) {
		if mtbf <= 0 {
			return
		}
		rng := exec.DomainRNG(cfg.Seed, domain, int64(idx))
		t := rng.ExpFloat64() * mtbf
		for t < horizonS {
			end := t + rng.ExpFloat64()*mttr
			tl.Events = append(tl.Events, mk(t, end))
			t = end + rng.ExpFloat64()*mtbf
		}
	}
	for i, id := range in.Satellites {
		id := id
		renewal(domainSat, i, cfg.SatMTBFS, cfg.SatMTTRS, func(s, e float64) Event {
			return Event{Kind: KindSatFailure, Node: id, StartS: s, EndS: e}
		})
	}
	for i, isl := range in.ISLs {
		isl := isl
		renewal(domainISL, i, cfg.ISLMTBFS, cfg.ISLMTTRS, func(s, e float64) Event {
			return Event{Kind: KindISLFlap, From: isl[0], To: isl[1], StartS: s, EndS: e}
		})
	}
	for i, id := range in.Grounds {
		id := id
		renewal(domainGround, i, cfg.GroundMTBFS, cfg.GroundMTTRS, func(s, e float64) Event {
			return Event{Kind: KindGroundOutage, Node: id, StartS: s, EndS: e}
		})
	}

	// Correlated mass events: one fleet-wide storm process; each storm
	// rolls per-satellite membership and outage length from a per-storm
	// stream, so storms are reproducible independently of each other.
	if cfg.StormMTBFS > 0 {
		arrivals := exec.DomainRNG(cfg.Seed, domainStorm)
		t := arrivals.ExpFloat64() * cfg.StormMTBFS
		for storm := 0; t < horizonS; storm++ {
			srng := exec.DomainRNG(cfg.Seed, domainStorm, int64(storm))
			for _, id := range in.Satellites {
				if srng.Float64() >= cfg.StormFraction {
					continue
				}
				end := t + srng.ExpFloat64()*cfg.StormMTTRS
				tl.Events = append(tl.Events, Event{Kind: KindStorm, Node: id, StartS: t, EndS: end})
			}
			t += arrivals.ExpFloat64() * cfg.StormMTBFS
		}
	}

	sort.Slice(tl.Events, func(a, b int) bool {
		ea, eb := tl.Events[a], tl.Events[b]
		if ea.StartS != eb.StartS { //lint:allow floateq exact sort tie-break keeps the fault schedule deterministic
			return ea.StartS < eb.StartS
		}
		if ea.Kind != eb.Kind {
			return ea.Kind < eb.Kind
		}
		if ea.Node != eb.Node {
			return ea.Node < eb.Node
		}
		if ea.From != eb.From {
			return ea.From < eb.From
		}
		return ea.To < eb.To
	})
	return tl, nil
}

// MaskAt returns a fresh mask holding every event active at time t — the
// static (non-engine) way to sample the timeline, used for degraded
// snapshot views at an instant.
func (tl *Timeline) MaskAt(t float64) *Mask {
	m := NewMask()
	for _, ev := range tl.Events {
		if ev.StartS <= t && t < ev.EndS {
			m.Apply(ev)
		}
	}
	return m
}
