package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestResolve(t *testing.T) {
	if got := Resolve(4); got != 4 {
		t.Errorf("Resolve(4) = %d", got)
	}
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Errorf("Resolve(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(-3); got != runtime.NumCPU() {
		t.Errorf("Resolve(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		out, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndInvalid(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty map: out=%v err=%v", out, err)
	}
	if _, err := Map(4, -1, func(i int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := Map[int](4, 3, nil); err == nil {
		t.Error("nil fn should fail")
	}
}

func TestMapErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		ran.Store(0)
		_, err := Map(workers, 10, func(i int) (int, error) {
			ran.Add(1)
			if i == 7 || i == 3 {
				return 0, fmt.Errorf("task %d: %w", i, sentinel)
			}
			return i, nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		// The lowest failing index wins regardless of completion order.
		if !strings.Contains(err.Error(), "exec: task 3") {
			t.Errorf("workers=%d: err %q should name task 3", workers, err)
		}
		// Every task still runs: the executed set is scheduling-independent.
		if ran.Load() != 10 {
			t.Errorf("workers=%d: ran %d tasks, want 10", workers, ran.Load())
		}
	}
}

func TestMapPanicContainment(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 8, func(i int) (int, error) {
			if i == 5 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic not surfaced", workers)
		}
		if !strings.Contains(err.Error(), "task 5") || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("workers=%d: err %q should name task 5 and the panic value", workers, err)
		}
	}
}

// TestMapWorkersOneEquivalence is the package's core guarantee: a task set
// driven by per-index RNGs yields identical results at any worker count.
func TestMapWorkersOneEquivalence(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Map(workers, 200, func(i int) (float64, error) {
			rng := RNG(42, int64(i))
			sum := 0.0
			for k := 0; k < 50; k++ {
				sum += rng.Float64()
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 16} {
		parallel := run(workers)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: out[%d] = %v, serial = %v", workers, i, parallel[i], serial[i])
			}
		}
	}
}

// TestMapAllCollectsEveryError: unlike Map, which collapses to the
// lowest-indexed failure, MapAll hands back the full indexed error set —
// successes keep their results, failures (including panics) keep their
// own errors.
func TestMapAllCollectsEveryError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		out, errs, err := MapAll(workers, 10, func(i int) (int, error) {
			switch i {
			case 2, 7:
				return 0, fmt.Errorf("task %d: %w", i, sentinel)
			case 5:
				panic("kaboom")
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected argument error %v", workers, err)
		}
		if len(errs) != 10 {
			t.Fatalf("workers=%d: errs length = %d, want 10", workers, len(errs))
		}
		for i := 0; i < 10; i++ {
			switch i {
			case 2, 7:
				if !errors.Is(errs[i], sentinel) {
					t.Errorf("workers=%d: errs[%d] = %v, want sentinel", workers, i, errs[i])
				}
			case 5:
				if errs[i] == nil || !strings.Contains(errs[i].Error(), "kaboom") {
					t.Errorf("workers=%d: errs[%d] = %v, want contained panic", workers, i, errs[i])
				}
			default:
				if errs[i] != nil {
					t.Errorf("workers=%d: errs[%d] = %v, want nil", workers, i, errs[i])
				}
				if out[i] != i*i {
					t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i*i)
				}
			}
		}
	}
}

// TestMapAllCleanRun: a fully successful run returns a nil error slice, so
// callers can gate on errs == nil without scanning.
func TestMapAllCleanRun(t *testing.T) {
	out, errs, err := MapAll(3, 8, func(i int) (int, error) { return i, nil })
	if err != nil || errs != nil {
		t.Fatalf("err = %v, errs = %v, want nil/nil", err, errs)
	}
	for i, v := range out {
		if v != i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
	if _, _, err := MapAll(3, -1, func(i int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n should fail")
	}
	if _, _, err := MapAll[int](3, 4, nil); err == nil {
		t.Error("nil fn should fail")
	}
}

// TestSeedDistinctAcrossSweep exhaustively checks the coordinate ranges the
// experiment sweeps actually use: every (point, trial) pair in a sweep the
// size of Fig2b's must derive a distinct seed.
func TestSeedDistinctAcrossSweep(t *testing.T) {
	seen := make(map[int64][2]int64)
	for n := int64(1); n <= 100; n += 3 {
		for trial := int64(0); trial < 120; trial++ {
			s := Seed(1, n, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d) → %d", prev[0], prev[1], n, trial, s)
			}
			seen[s] = [2]int64{n, trial}
		}
	}
}

// TestSeedCollisionFreeProperty drives the derivation with testing/quick:
// distinct (n, trial) tuples under the same base seed must not collide,
// and the same tuple must always reproduce the same seed.
func TestSeedCollisionFreeProperty(t *testing.T) {
	prop := func(base, n1, t1, n2, t2 int64) bool {
		s1, s2 := Seed(base, n1, t1), Seed(base, n2, t2)
		if n1 == n2 && t1 == t2 {
			return s1 == s2
		}
		return s1 != s2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSeedOrderSensitive: coordinates are positional — (a,b) and (b,a)
// must differ, and prefixes must not collide with their extensions.
func TestSeedOrderSensitive(t *testing.T) {
	if Seed(1, 2, 3) == Seed(1, 3, 2) {
		t.Error("swapped coordinates collide")
	}
	if Seed(1, 2) == Seed(1, 2, 0) {
		t.Error("prefix collides with extension")
	}
	if Seed(1, 5) == Seed(2, 5) {
		t.Error("base seed ignored")
	}
}

func TestRNGIndependentStreams(t *testing.T) {
	a, b := RNG(7, 0), RNG(7, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent task streams overlap in %d/64 draws", same)
	}
	// Same coordinates → same stream.
	c, d := RNG(7, 0, 3), RNG(7, 0, 3)
	for i := 0; i < 8; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same coordinates produced different streams")
		}
	}
}
