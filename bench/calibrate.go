package main

import (
	"math"
	"slices"
	"sync"
)

// refCalS is how long calibrate takes on the reference host (Intel Xeon,
// 2 vCPUs, Go 1.24) when it runs at full speed. Every end-to-end time is
// reported in seconds of that host: multiplied by refCalS over the
// calibration measured around its own iteration.
//
// On a shared host the whole machine runs up to twice as slow for minutes
// at a time, and CPU time rises with wall time, so no statistic over one
// run's iterations removes it. A kernel that shares no code with the
// simulator slows down with the host but not with the simulator, so the
// ratio keeps regressions and drops the host's speed.
const refCalS = 0.025

// calSink keeps the kernel's result alive.
var calSink uint64

// calibrate runs calKernel on every worker at once and returns the mean
// per-worker time, as the median of three tries.
func calibrate(workers int) float64 {
	tries := make([]float64, 3)
	for k := range tries {
		times := make([]float64, workers)
		sums := make([]uint64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				t0 := now()
				sums[w] = calKernel()
				times[w] = now() - t0
			}(w)
		}
		wg.Wait()
		for w := range times {
			tries[k] += times[w] / float64(workers)
			calSink += sums[w]
		}
	}
	return median(tries)
}

// calKernel is fixed, deterministic work that mixes integer arithmetic,
// sorting, hashing into a map, and floating point, like the simulator.
func calKernel() uint64 {
	const n = 1 << 17
	xs := make([]uint64, n)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	slices.Sort(xs)
	m := make(map[uint64]uint64, n/4)
	for i, v := range xs {
		m[v%(n/2)] += uint64(i)
	}
	f := 0.0
	for i := 0; i < 4_000_000; i++ {
		f += math.Sqrt(float64(i))
	}
	return uint64(len(m)) + uint64(f) + xs[n/2]
}
