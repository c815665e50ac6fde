package lint

import "testing"

func TestPoolshare(t *testing.T) {
	pkg := Module + "/internal/fixture"

	t.Run("reads_and_disjoint_writes_are_fine", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import "` + Module + `/internal/exec"

type row struct{ v, w int }

func Sweep(workers, n int, scale int) ([]int, error) {
	out := make([]int, n)
	grid := make([]row, n)
	_, err := exec.Map(workers, n, func(i int) (int, error) {
		local := scale * i // reads of captures are fine
		out[i] = local     // index-disjoint by the task index
		grid[i].v = local  // field of a task-indexed element
		grid[i].w = local + 1
		return 0, nil
	})
	return out, err
}
`})
	})

	t.Run("non_disjoint_writes_are_reported", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import "` + Module + `/internal/exec"

func Sweep(workers, n int) error {
	sum := 0
	last := 0
	out := make([]int, n+1)
	_, err := exec.Map(workers, n, func(i int) (int, error) {
		sum += i        // want "write to captured sum"
		last = i        // want "write to captured last"
		out[i+1] = i    // want "write to captured out"
		out[i] = i      // disjoint: fine
		return 0, nil
	})
	_ = last
	return err
}
`})
	})

	t.Run("maps_appends_pointers_and_rand", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import (
	"math/rand"

	"` + Module + `/internal/exec"
)

func Sweep(workers, n int, rng *rand.Rand, total *float64) ([]int, error) {
	counts := map[int]int{}
	var rows []int
	return exec.Map(workers, n, func(i int) (int, error) {
		counts[i] = i            // want "map write to captured counts"
		rows = append(rows, i)   // want "append to captured slice rows"
		*total += rng.Float64()  // want "write through captured pointer total" "captured *math/rand.Rand rng"
		return 0, nil
	})
}
`})
	})

	t.Run("mapall_tasks_carry_the_same_contract", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import "` + Module + `/internal/exec"

func Sweep(workers, n int) ([]int, []error, error) {
	worst := 0
	out := make([]int, n)
	vals, errs, err := exec.MapAll(workers, n, func(i int) (int, error) {
		if i > worst {
			worst = i // want "write to captured worst"
		}
		out[i] = i // disjoint: fine
		return i, nil
	})
	_ = out
	return vals, errs, err
}
`})
	})

	t.Run("non_literal_task_function_is_reported", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import "` + Module + `/internal/exec"

func task(i int) (int, error) { return i, nil }

func Sweep(workers, n int) ([]int, error) {
	return exec.Map(workers, n, task) // want "task function passed to exec.Map is not a closure literal"
}
`})
	})

	t.Run("closure_locals_and_nested_closures_are_fine", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import "` + Module + `/internal/exec"

func Sweep(workers, n int) ([]int, error) {
	return exec.Map(workers, n, func(i int) (int, error) {
		acc := 0
		add := func(v int) { acc += v } // task-local capture: not shared
		for j := 0; j < i; j++ {
			add(j)
		}
		return acc, nil
	})
}
`})
	})

	t.Run("map_results_written_by_return_are_fine", func(t *testing.T) {
		// The collector owns out[i]; the idiomatic return-a-value shape
		// must stay silent end to end.
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import "` + Module + `/internal/exec"

func Sweep(workers, n int, seed int64) ([]float64, error) {
	return exec.Map(workers, n, func(i int) (float64, error) {
		rng := exec.RNG(seed, int64(i)) // per-task stream: the blessed pattern
		return rng.Float64(), nil
	})
}
`})
	})

	t.Run("allow_suppresses_with_reason", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "poolshare"), execStub, fixturePkg{pkg, `package fixture
import "` + Module + `/internal/exec"

func Sweep(workers, n int) ([]int, error) {
	hits := 0
	return exec.Map(workers, n, func(i int) (int, error) {
		//lint:allow poolshare guarded by a mutex in the real call site shape under test
		hits++
		return 0, nil
	})
}
`})
	})
}
