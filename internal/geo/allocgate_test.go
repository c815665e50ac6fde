package geo

import (
	"math"
	"math/rand"
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

// TestAllocGateCoverage pins the //lint:hotpath contract on
// CoverageGrid.covered: on a prebuilt grid, scoring a Figure 2(c)-sized
// cap set converts the caps on the stack and allocates nothing.
func TestAllocGateCoverage(t *testing.T) {
	allocGate(t)
	g := NewCoverageGrid(4000)
	rng := rand.New(rand.NewSource(3))
	caps := make([]Cap, 100)
	for i := range caps {
		caps[i] = Cap{Center: randomSurfacePoint(rng), AngularRadius: FootprintAngularRadius(780, 0)}
	}
	want := g.Fraction(caps)
	if want <= 0 || want >= 1 {
		t.Fatalf("fixture coverage %v; gate would not exercise both outcomes", want)
	}
	run := func() {
		if got := g.Fraction(caps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("coverage changed across runs: %v → %v", want, got)
		}
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("CoverageGrid.Fraction allocates %.2f per call, want 0", avg)
	}
}
