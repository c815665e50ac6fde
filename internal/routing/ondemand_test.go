package routing

import (
	"errors"
	"math"
	"testing"

	"github.com/openspace-project/openspace/internal/topo"
)

func TestEdgeLoadAccounting(t *testing.T) {
	s := testSnapshot(t, 1, false)
	l := NewEdgeLoad(s)
	p, err := ShortestPath(s, "u-nairobi", "gs-seattle", LatencyCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if u := l.Utilization(p.Nodes[0], p.Nodes[1]); u != 0 {
		t.Errorf("fresh tracker utilization = %v", u)
	}
	first, _ := s.Edge(p.Nodes[0], p.Nodes[1])
	l.Commit(p, first.CapacityBps/2)
	if u := l.Utilization(p.Nodes[0], p.Nodes[1]); u != 0.5 {
		t.Errorf("after half commit, utilization = %v, want 0.5", u)
	}
	// Reverse direction unaffected.
	if u := l.Utilization(p.Nodes[1], p.Nodes[0]); u != 0 {
		t.Errorf("reverse direction loaded: %v", u)
	}
	// Unknown edge reports zero.
	if l.Utilization("x", "y") != 0 {
		t.Error("unknown edge should report zero")
	}
}

func TestOnDemandAdmitAndSpill(t *testing.T) {
	s := testSnapshot(t, 1, false)
	r := NewOnDemandRouter(s, DefaultQoS())

	first, err := r.Admit("u-nairobi", "gs-seattle", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// Load the first path's bottleneck to near saturation; the next flow
	// must route around it.
	r.Load().Commit(first, first.MinCapacityBps*0.95)
	second, err := r.Admit("u-nairobi", "gs-seattle", first.MinCapacityBps*0.5)
	if err != nil {
		t.Fatalf("spill flow rejected: %v", err)
	}
	same := len(first.Nodes) == len(second.Nodes)
	if same {
		for i := range first.Nodes {
			if first.Nodes[i] != second.Nodes[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("congested path reused for a flow that cannot fit")
	}
}

func TestOnDemandRejectsImpossible(t *testing.T) {
	s := testSnapshot(t, 1, false)
	r := NewOnDemandRouter(s, DefaultQoS())
	// A rate that is not positive and finite is refused before it reaches
	// the tracker: a committed NaN would poison the utilisation of every
	// edge on its path and, through the cost function, later admissions.
	for _, bps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if p, err := r.Admit("u-nairobi", "gs-seattle", bps); err == nil {
			t.Errorf("rate %v admitted on %v", bps, p.Nodes)
		}
	}
	for _, e := range s.Edges() {
		from, to := edgeIDs(s, e)
		if u := r.Load().Utilization(from, to); u != 0 {
			t.Fatalf("%s→%s utilization %v after refused admissions", from, to, u)
		}
	}
	// A flow bigger than any access link cannot be admitted.
	if _, err := r.Admit("u-nairobi", "gs-seattle", 1e15); !errors.Is(err, ErrNoPath) {
		t.Errorf("oversized flow: %v", err)
	}
}

func TestQoSLoadPenaltySaturatedUnusable(t *testing.T) {
	s := testSnapshot(t, 1, false)
	load := NewEdgeLoad(s)
	pol := DefaultQoS()
	pol.Load = load
	cost := pol.Cost()
	// Saturate one edge fully; its cost function must mark it unusable.
	var e topo.Edge
	for _, id := range s.Nodes() {
		if es := s.Neighbors(id); len(es) > 0 {
			e = es[0]
			break
		}
	}
	from, to := edgeIDs(s, e)
	p := Path{Nodes: []string{from, to}}
	load.Commit(p, e.CapacityBps*2)
	if _, usable := cost(e, s); usable {
		t.Error("saturated edge should be unusable")
	}
}

// TestOnDemandRouter drives admission control to saturation on the
// diamond: each route fits two 0.4 Gbps flows and not a third, so exactly
// four are admitted, the fifth is refused with ErrNoPath, and the tracker
// reports no load where there is no edge.
func TestOnDemandRouter(t *testing.T) {
	s := diamondSnapshot(t)
	r := NewOnDemandRouter(s, DefaultQoS())
	var admitted []Path
	for {
		p, err := r.Admit("src", "dst", 4e8)
		if err != nil {
			if !errors.Is(err, ErrNoPath) {
				t.Fatalf("refusal: %v, want ErrNoPath", err)
			}
			break
		}
		if admitted = append(admitted, p); len(admitted) > 4 {
			t.Fatalf("admitted %d flows of 0.4 Gbps over two 1 Gbps routes", len(admitted))
		}
	}
	if len(admitted) != 4 {
		t.Fatalf("admitted %d flows, want 4", len(admitted))
	}
	for _, e := range s.Edges() {
		from, to := edgeIDs(s, e)
		if u := r.Load().Utilization(from, to); u != 0 && u != 0.8 {
			t.Errorf("%s→%s utilization %v, want 0 or 0.8", from, to, u)
		}
	}

	l := r.Load()
	for _, pair := range [][2]string{{"src", "dst"}, {"a", "b"}, {"src", "zz"}, {"zz", "src"}} {
		if u := l.Utilization(pair[0], pair[1]); u != 0 {
			t.Errorf("Utilization(%s, %s) = %v, want 0", pair[0], pair[1], u)
		}
	}
}
