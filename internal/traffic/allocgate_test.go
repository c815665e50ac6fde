package traffic

import (
	"os"
	"testing"
)

// allocGate skips unless the zero-allocation gates are explicitly enabled
// (OPENSPACE_ALLOC_GATE=1, as CI's alloc-gate step does).
func allocGate(t *testing.T) {
	t.Helper()
	if os.Getenv("OPENSPACE_ALLOC_GATE") == "" {
		t.Skip("set OPENSPACE_ALLOC_GATE=1 to run the zero-allocation gates")
	}
}

// reset restores every arc to its initial capacity so the same graph can
// be solved again without rebuilding (TestAllocGateDinic re-solves in a
// loop to prove the kernel allocates nothing).
func (g *dinicGraph) reset() {
	for i := range g.arcs {
		g.arcs[i].cap = g.arcs[i].orig
	}
}

// TestAllocGateDinic pins the //lint:hotpath contract on dinicGraph.solve:
// once the residual graph is built, re-solving it (reset + phase loop)
// must touch only the receiver's preallocated scratch.
func TestAllocGateDinic(t *testing.T) {
	allocGate(t)
	n := sharedBottleneck(t)
	g := newDinicGraph(n)
	s, _ := g.ix.Lookup("a")
	d, _ := g.ix.Lookup("c")
	want := g.solve(s, d)
	run := func() {
		g.reset()
		if got := g.solve(s, d); got != want {
			t.Fatalf("re-solve value %v, want %v", got, want)
		}
	}
	run() // warm
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("dinic solve allocates %.2f per run, want 0", avg)
	}
}

// TestAllocGateMaxFlow pins MaxFlow's pooled residual graph: once a
// graph is warm in the pool, a solve on a +Grid allocates only its
// result, the MaxFlowResult with its Flow and MinCut slices.
func TestAllocGateMaxFlow(t *testing.T) {
	allocGate(t)
	n := memoNetwork(t, mustWalker(t, 144), true)
	want, err := MaxFlow(n, "gs-seattle", "gs-london")
	if err != nil {
		t.Fatal(err)
	}
	if want.ValueBps <= 0 || len(want.MinCut) == 0 {
		t.Fatalf("gated max flow carries %v over a %d-link cut; the gate needs both", want.ValueBps, len(want.MinCut))
	}
	run := func() {
		got, err := MaxFlow(n, "gs-seattle", "gs-london")
		if err != nil {
			t.Fatal(err)
		}
		if got.ValueBps != want.ValueBps {
			t.Fatalf("re-solve value %v, want %v", got.ValueBps, want.ValueBps)
		}
	}
	run() // warm
	if avg := testing.AllocsPerRun(100, run); avg != 3 {
		t.Fatalf("warmed MaxFlow allocates %.2f per run, want 3 (result, flow, cut)", avg)
	}
}

// TestAllocGateMaxMinFill pins the //lint:hotpath contract on
// fillState.run: the progressive-filling kernel re-run from a snapshot of
// the prepared state must allocate nothing.
func TestAllocGateMaxMinFill(t *testing.T) {
	allocGate(t)
	n := sharedBottleneck(t)
	dems := []Demand{
		{Src: "a", Dst: "c", OfferedBps: 2},
		{Src: "b", Dst: "d", OfferedBps: 20},
	}
	alloc, st, err := prepareFill(n, dems, AllocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the prepared state so the kernel restarts from scratch each
	// run without re-routing.
	demB := append([]DemandAllocation(nil), alloc.Demands...)
	loadB := append([]float64(nil), st.linkLoad...)
	usersB := append([]int32(nil), st.linkUsers...)
	activeB := append([]bool(nil), st.active...)
	nActiveB := st.nActive
	run := func() {
		copy(alloc.Demands, demB)
		copy(st.linkLoad, loadB)
		copy(st.linkUsers, usersB)
		copy(st.active, activeB)
		st.nActive = nActiveB
		st.run(alloc.Demands)
	}
	run() // warm
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("progressive-filling kernel allocates %.2f per run, want 0", avg)
	}
	if alloc.Demands[0].RateBps != 2 {
		t.Fatalf("small demand rate = %v after gated runs, want its full 2", alloc.Demands[0].RateBps)
	}
}
