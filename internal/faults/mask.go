package faults

import (
	"fmt"

	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
)

// Mask is the set of currently failed elements, maintained incrementally
// as fault events start and end. It implements topo.Mask, and View hands
// out each snapshot's degraded view under the current state — no geometry
// rebuild. Overlapping outages on the same element are reference-counted:
// a satellite downed by both a storm and an independent hard failure stays
// down until both clear.
type Mask struct {
	nodes map[string]int
	edges map[[2]string]int
	views map[*topo.Snapshot]*topo.Snapshot // overlays under the current state
}

// NewMask returns an empty mask (nothing down).
func NewMask() *Mask {
	return &Mask{
		nodes: make(map[string]int),
		edges: make(map[[2]string]int),
		views: make(map[*topo.Snapshot]*topo.Snapshot),
	}
}

// View returns s degraded by the current fault state. A nil or empty mask
// returns s itself; otherwise the overlay is built on first use and shared
// until the next Apply or Clear, which drop every cached view, so a view
// is never stale and callers never invalidate anything.
func (m *Mask) View(s *topo.Snapshot) *topo.Snapshot {
	if m == nil || m.Empty() {
		return s
	}
	v, ok := m.views[s]
	if !ok {
		v = s.Overlay(m)
		m.views[s] = v
	}
	return v
}

// edgeKey normalises an undirected link key.
func edgeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Apply marks the event's target down.
func (m *Mask) Apply(ev Event) {
	clear(m.views)
	if ev.Node != "" {
		m.nodes[ev.Node]++
		return
	}
	m.edges[edgeKey(ev.From, ev.To)]++
}

// Clear marks the event's target repaired.
func (m *Mask) Clear(ev Event) {
	clear(m.views)
	if ev.Node != "" {
		if m.nodes[ev.Node]--; m.nodes[ev.Node] <= 0 {
			delete(m.nodes, ev.Node)
		}
		return
	}
	key := edgeKey(ev.From, ev.To)
	if m.edges[key]--; m.edges[key] <= 0 {
		delete(m.edges, key)
	}
}

// NodeDown implements topo.Mask.
func (m *Mask) NodeDown(id string) bool { return m.nodes[id] > 0 }

// EdgeDown implements topo.Mask.
func (m *Mask) EdgeDown(from, to string) bool { return m.edges[edgeKey(from, to)] > 0 }

// Empty implements topo.Mask.
func (m *Mask) Empty() bool { return len(m.nodes) == 0 && len(m.edges) == 0 }

// Down returns the number of failed nodes and links.
func (m *Mask) Down() (nodes, edges int) { return len(m.nodes), len(m.edges) }

// PathDown reports whether any node or hop of the node sequence is failed.
func (m *Mask) PathDown(nodes []string) bool {
	if m.Empty() {
		return false
	}
	for i, id := range nodes {
		if m.NodeDown(id) {
			return true
		}
		if i+1 < len(nodes) && m.EdgeDown(id, nodes[i+1]) {
			return true
		}
	}
	return false
}

// Drive schedules the timeline onto the engine: at each event's start the
// mask applies it, at its end (when inside the horizon) the mask clears
// it, and onChange — if non-nil — runs after every mask update with the
// event and its new state (down true at start, false at repair). Events
// are scheduled in timeline order, so same-instant faults apply in the
// deterministic order Generate sorted them into.
func (tl *Timeline) Drive(e *sim.Engine, m *Mask, onChange func(e *sim.Engine, ev Event, down bool)) error {
	if m == nil {
		return fmt.Errorf("faults: drive needs a mask")
	}
	for _, ev := range tl.Events {
		ev := ev
		if err := e.Schedule(ev.StartS, func(e *sim.Engine) {
			m.Apply(ev)
			if onChange != nil {
				onChange(e, ev, true)
			}
		}); err != nil {
			return err
		}
		if ev.EndS >= tl.HorizonS {
			continue // repairs beyond the horizon never observed
		}
		if err := e.Schedule(ev.EndS, func(e *sim.Engine) {
			m.Clear(ev)
			if onChange != nil {
				onChange(e, ev, false)
			}
		}); err != nil {
			return err
		}
	}
	return nil
}
