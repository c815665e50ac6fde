package topo

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

// TestAllocGateFeasibleISLs pins the //lint:hotpath contract on
// builder.feasibleISLs: with positions and candidate lists in place, the
// range/line-of-sight filter and its deterministic sort must reuse the
// builder's scratch and allocate nothing.
func TestAllocGateFeasibleISLs(t *testing.T) {
	allocGate(t)
	b := newBuilder(DefaultConfig(), randomSpecs(128, 3), nil, nil)
	b.SnapshotAt(0) // fills positions, builds candidate lists, sizes the scratch
	cands := b.candISL
	if b.staticMode {
		cands = b.staticPairs
	}
	b.feasibleISLs(cands)
	nWarm := len(b.feasible)
	if nWarm == 0 {
		t.Fatal("fixture produced no feasible ISL pairs; gate would be vacuous")
	}
	run := func() {
		b.feasibleISLs(cands)
		if got := len(b.feasible); got != nWarm {
			t.Fatalf("feasible set size changed across runs: %d → %d", nWarm, got)
		}
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("feasibleISLs allocates %.2f per snapshot, want 0", avg)
	}
}
