// Package exec is the parallel execution substrate for experiment sweeps:
// a bounded worker pool with an ordered fan-in collector, plus the
// deterministic per-task RNG derivation that keeps results bitwise
// identical at any worker count.
//
// Experiments in internal/experiments flatten their sweep × trial loops
// into an index space and hand each index to Map. Determinism rests on two
// invariants the package enforces:
//
//  1. Results are collected by task index, never by completion order.
//  2. No task reads scheduling-dependent state; randomness comes from
//     RNG(seed, coords...) so each task owns an independent stream derived
//     only from its logical coordinates.
//
// Under those rules a sweep run with one worker and with N workers
// produces identical bytes, which is what lets CI diff the experiment CSVs
// across worker counts on every PR.
package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve returns the effective worker count for a requested value: the
// request if positive, otherwise runtime.NumCPU().
func Resolve(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.NumCPU()
}

// Map runs fn(0), …, fn(n-1) on a bounded pool of workers and returns the
// results in index order. workers ≤ 0 means one worker per CPU.
//
// Every task runs even when earlier ones fail, so the set of executed work
// never depends on scheduling; if any tasks failed, Map reports the error
// of the lowest-indexed failure. A panicking task is contained and
// surfaced as that task's error rather than crashing the pool.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	//lint:allow poolshare Map forwards its caller's task to MapAll; the closure is checked at Map's own submit sites
	out, errs, err := MapAll(workers, n, fn)
	if err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exec: task %d: %w", i, err)
		}
	}
	return out, nil
}

// MapAll is Map without the fail-fast error report: every task runs, and
// the per-task errors come back indexed alongside the results instead of
// being collapsed to the lowest-indexed failure. errs is nil when every
// task succeeded; otherwise errs[i] is task i's error (nil for tasks that
// succeeded — their out[i] is valid). The returned error is reserved for
// invalid arguments, never for task failures. Supervisors that must keep
// going past individual failures — the campaign cell runner is the
// canonical caller — build their failure manifests from errs.
//
// Panic containment and scheduling are exactly Map's: a panicking task
// surfaces as its own error, and the set of executed work never depends
// on worker scheduling.
func MapAll[T any](workers, n int, fn func(i int) (T, error)) ([]T, []error, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("exec: negative task count %d", n)
	}
	if fn == nil {
		return nil, nil, errors.New("exec: nil task function")
	}
	out := make([]T, n)
	errs := make([]error, n)
	w := Resolve(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = call(fn, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < w; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = call(fn, i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, errs, nil
		}
	}
	return out, nil, nil
}

// call invokes one task with panic containment.
func call[T any](fn func(int) (T, error), i int) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panicked: %v", r)
		}
	}()
	return fn(i)
}
