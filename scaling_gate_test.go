package openspace

// The CI scaling gate: an explicit check that snapshot construction stays
// near-linear in constellation size. The spatial index in internal/topo
// exists so mega-constellation sweeps (E14/E15 at N=4000) are tractable; a
// regression back to the O(N²) pair scan would silently quadruple CI wall
// time long before any correctness test noticed. This test times a +Grid
// Walker-Delta snapshot at N=500 and N=2000 and fails when the wall-time
// ratio exceeds a generous super-linear tolerance.
//
// The gate only runs with OPENSPACE_SCALING_GATE=1 (a dedicated CI job):
// wall-clock assertions are inherently machine-sensitive and have no place
// in the default `go test ./...` run.

import (
	"os"
	"testing"
	"time"

	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/topo"
)

// scalingGateRatioMax is the N=2000/N=500 wall-time ceiling. Perfectly
// linear construction gives 4×; the O(N²) pair scan gives ~16×. 9× splits
// the two with headroom for constant-factor noise on shared CI runners.
const scalingGateRatioMax = 9.0

// timeSnapshots measures the best-of-3 wall time of `reps` from-scratch
// snapshot builds at distinct epochs, so each one indexes a different
// satellite layout.
func timeSnapshots(tb testing.TB, n, reps int) time.Duration {
	tb.Helper()
	cfg, specs, grounds, users := gridBuildInputs(tb, n)
	best := time.Duration(0)
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			snap := topo.Build(float64(i*15), cfg, specs, grounds, users)
			if snap.NodeCount() < n {
				tb.Fatalf("n=%d: snapshot lost nodes (%d)", n, snap.NodeCount())
			}
		}
		if d := time.Since(start); attempt == 0 || d < best {
			best = d
		}
	}
	return best
}

// usersScaleGateRatioMax bounds the wall-time growth of an E18 cell when
// the effective population grows 1000×. The fluid model's work is
// O(aggregates × epochs), independent of Users: a perfectly flat profile
// gives 1×, a per-flow engine would give ~1000×. 5× leaves room for the
// larger Poisson means and CI-runner noise while still failing hard if
// anything reintroduces per-user work.
const usersScaleGateRatioMax = 5.0

// TestScalingGateUsersScale is the E18 sublinearity gate: serving 10⁷
// users must cost the same order of wall time as serving 10⁴, because the
// aggregation layer never materialises per-user events. Each cell's wall
// time is measured inside the harness (snapshot construction excluded, so
// the ratio isolates the fluid evolution). Cells share each epoch's
// Network, and the first cell to reach an epoch recapacitates it and
// routes its gateway pairs; the 10⁷ cell runs first, so it pays for that
// shared work and the ratio can only come out higher than with unshared
// Networks.
func TestScalingGateUsersScale(t *testing.T) {
	if os.Getenv("OPENSPACE_SCALING_GATE") != "1" {
		t.Skip("set OPENSPACE_SCALING_GATE=1 to run the wall-time scaling gate")
	}
	cfg := experiments.DefaultUsersScale()
	cfg.Sats = 200
	cfg.UserCounts = []int{10_000_000, 10_000} // large first: it pays the shared routing
	cfg.DurationS = 300
	cfg.Workers = 1 // serial: the two cells must not contend for cores
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		r, err := experiments.UsersScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		small, large := r.WallS(10_000), r.WallS(10_000_000)
		if small <= 0 || large <= 0 {
			t.Fatalf("missing wall-time measurements: %v, %v", small, large)
		}
		ratio := large / small
		t.Logf("users-scale attempt %d: 10⁴ users %.3f s, 10⁷ users %.3f s — ratio %.2f (gate %.1f)",
			attempt, small, large, ratio, usersScaleGateRatioMax)
		if attempt == 0 || ratio < best {
			best = ratio
		}
	}
	if best > usersScaleGateRatioMax {
		t.Fatalf("super-linear user scaling: 1000× users cost %.2f× wall time (gate %.1f×); "+
			"did per-user work leak back into the fluid path?", best, usersScaleGateRatioMax)
	}
}

func TestScalingGateSnapshotBuild(t *testing.T) {
	if os.Getenv("OPENSPACE_SCALING_GATE") != "1" {
		t.Skip("set OPENSPACE_SCALING_GATE=1 to run the wall-time scaling gate")
	}
	const reps = 10
	// Warm up allocator and caches once before the measured runs.
	timeSnapshots(t, 500, 2)

	small := timeSnapshots(t, 500, reps)
	large := timeSnapshots(t, 2000, reps)
	ratio := float64(large) / float64(small)
	t.Logf("snapshot build: N=500 %v, N=2000 %v (%d reps, best of 3) — ratio %.2f (gate %.1f)",
		small, large, reps, ratio, scalingGateRatioMax)
	if ratio > scalingGateRatioMax {
		t.Fatalf("super-linear scaling: 4× satellites cost %.2f× wall time (gate %.1f×); "+
			"did the spatial index regress to a quadratic scan?", ratio, scalingGateRatioMax)
	}
}
