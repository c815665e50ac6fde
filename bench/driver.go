package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// sample is what one child process reports about one iteration, plus what
// the parent measured about the process.
type sample struct {
	WallS      float64 `json:"wall_s"`     // first layer call to emitted CSV bytes
	WorkCPUS   float64 `json:"work_cpu_s"` // user+sys CPU over the same interval
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	// Digest hashes every emitted CSV: iterations of one seed must agree,
	// traced or not.
	Digest   string `json:"digest"`
	Expected int    `json:"expected_rows"`
	Failed   int    `json:"failed_rows"`
	// Traced iterations only: per-call durations (seconds) by timing, and
	// per-layer values (see analyze).
	Samples map[string][]float64 `json:"samples,omitempty"`
	Values  map[string]float64   `json:"values,omitempty"`

	// Measured by the parent. CalS is the mean of the calibrations right
	// before and right after the child ran.
	LifetimeS float64 `json:"lifetime_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	CalS      float64 `json:"cal_s"`
	// Err says why the iteration produced no sample: the child failed,
	// timed out, or printed something else.
	Err string `json:"err,omitempty"`
}

// childMain runs one iteration of a workload in this process and prints
// its sample. Set-up (flag parsing, golden loading, config building)
// happens before the clock starts; the parent reports it as setup_s.
func childMain(name string, seed int64, traced bool, spansDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	p := params{seed: seed, workers: workerCount()}
	var goldens map[string][]byte
	if seed == 0 {
		if goldens, err = loadGoldens(root, w.files); err != nil {
			return err
		}
	}
	tr := newTracer()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := now()
	var outs []output
	if traced {
		outs, err = w.replay(p, tr)
	} else {
		outs, err = w.run(p)
	}
	wall := now() - t0
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	s := sample{
		WallS: wall, WorkCPUS: cpu,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		GCCycles:   m1.NumGC - m0.NumGC,
	}
	s.Digest, s.Expected, s.Failed = check(outs, goldens)
	if traced {
		s.Samples, s.Values = analyze(tr.recorders(), wall, p.workers)
		if spansDir != "" {
			if err := writeSpans(spansDir, name, tr.recorders()); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// check digests a run's outputs and, when goldens are given, counts the
// golden rows they were expected to reproduce and the ones they did not.
// Without goldens (a non-zero seed) every emitted row counts as expected;
// the parent then fails iterations whose digest differs.
func check(outs []output, goldens map[string][]byte) (digest string, expected, failed int) {
	var all bytes.Buffer
	for _, o := range outs {
		fmt.Fprintf(&all, "%s\n%d\n%s", o.file, len(o.csv), o.csv)
		if goldens == nil {
			expected += rowCount(o.csv)
			continue
		}
		e, f := checkGolden(goldens[o.file], o.csv, o.keys)
		expected += e
		failed += f
	}
	sum := sha256.Sum256(all.Bytes())
	return hex.EncodeToString(sum[:]), expected, failed
}

// cpuTime is this process's user+system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// childTimeout bounds one iteration; the longest takes a few seconds.
const childTimeout = 150 * time.Second

// runChild runs one iteration of w in a fresh process of this binary and
// waits for it to exit. A failed iteration comes back with Err set.
func runChild(w *workload, seed int64, traced bool, spansDir string) sample {
	exe, err := os.Executable()
	if err != nil {
		return failedSample(w, err)
	}
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if spansDir != "" {
			args = append(args, "-spans", spansDir)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := osexec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workerCount()))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cal := calibrate(workerCount())
	start := now()
	err = cmd.Run()
	life := now() - start
	cal = (cal + calibrate(workerCount())) / 2
	if err != nil {
		return failedSample(w, err)
	}
	var s sample
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		return failedSample(w, fmt.Errorf("reading its sample: %w", err))
	}
	s.LifetimeS, s.CalS = life, cal
	ps := cmd.ProcessState
	s.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		s.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return s
}

// speed is how fast the host ran during the iteration relative to the
// reference host; an uncalibrated sample counts as full speed.
func (s sample) speed() float64 {
	if s.CalS <= 0 {
		return 1
	}
	return refCalS / s.CalS
}

func failedSample(w *workload, err error) sample {
	msg := fmt.Sprintf("%s iteration: %v", w.name, err)
	fmt.Fprintln(os.Stderr, "bench:", msg)
	return sample{Err: msg}
}

// succeeded returns the samples of the iterations that completed.
func succeeded(samples []sample) []sample {
	var ok []sample
	for _, s := range samples {
		if s.Err == "" {
			ok = append(ok, s)
		}
	}
	return ok
}

// tally adds up the golden rows the iterations were expected to reproduce
// and the ones they failed. Every row of an iteration whose digest differs
// from the first completed one's is failed, and so is every row of an
// iteration that did not complete, which expects as many rows as a
// completed one (one if none completed).
func tally(samples []sample) (attempted, failed int) {
	var ref sample
	if ok := succeeded(samples); len(ok) > 0 {
		ref = ok[0]
	}
	for _, s := range samples {
		switch {
		case s.Err != "":
			attempted += max(ref.Expected, 1)
			failed += max(ref.Expected, 1)
		case s.Digest != ref.Digest:
			attempted += s.Expected
			failed += s.Expected
		default:
			attempted += s.Expected
			failed += s.Failed
		}
	}
	return attempted, failed
}

func column(samples []sample, get func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = get(s)
	}
	return xs
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// endToEndStats summarizes one workload's completed untraced iterations,
// with times in reference-host seconds (see refCalS).
func endToEndStats(untraced []sample) []stat {
	get := map[string]func(sample) float64{
		"wall_s":   func(s sample) float64 { return s.WallS * s.speed() },
		"cpu_s":    func(s sample) float64 { return s.CPUS * s.speed() },
		"alloc_mb": func(s sample) float64 { return float64(s.AllocBytes) / 1e6 },
		"setup_s":  func(s sample) float64 { return (s.LifetimeS - s.WallS) * s.speed() },
	}
	stats := make([]stat, len(endToEnd))
	for i, def := range endToEnd {
		stats[i] = summarize(def, column(untraced, get[def.Name]))
	}
	return stats
}

// layerValues computes every per-layer metric from one workload's
// completed traced iterations, with the untraced ones as the reference
// for tracing overhead, parallel efficiency and the runtime figures. It
// also returns how many deterministic counts differed between traced
// iterations.
func layerValues(untraced, traced []sample, workers int) (map[string]float64, int) {
	vals := map[string]float64{}
	mismatches := 0
	for _, def := range perLayer {
		if def.timing == "" {
			xs := column(traced, func(s sample) float64 { return s.Values[def.Name] })
			vals[def.Name] = median(xs)
			if def.Exact && len(xs) > 0 && slices.Min(xs) != slices.Max(xs) { //lint:allow floateq counts are whole numbers carried as floats; any difference is a mismatch
				mismatches++
			}
			continue
		}
		var pooled []float64
		for _, s := range traced {
			pooled = append(pooled, s.Samples[def.timing]...)
		}
		pct := 0.0 // no samples: the layer did not run on this workload
		if len(pooled) > 0 {
			pct = tailPercentile(len(pooled))
		}
		switch def.figure {
		case "p50":
			vals[def.Name] = percentile(pooled, 50) * unitScale(def.Unit)
		case "tail":
			vals[def.Name] = percentile(pooled, pct) * unitScale(def.Unit)
		default:
			vals[def.Name] = pct
		}
	}
	// Metrics measured outside the spans.
	vals["exec.parallel_eff"] = median(column(untraced, func(s sample) float64 {
		return s.WorkCPUS / (s.WallS * float64(workers))
	}))
	vals["runtime.peak_rss_mb"] = median(column(untraced, func(s sample) float64 { return s.PeakRSSMB }))
	vals["runtime.gc_cycles"] = median(column(untraced, func(s sample) float64 { return float64(s.GCCycles) }))
	vals["runtime.mallocs"] = median(column(untraced, func(s sample) float64 { return float64(s.Mallocs) }))
	vals["runtime.host_speed"] = median(column(untraced, sample.speed))
	vals["trace.iterations"] = float64(len(traced))
	vals["trace.overhead_frac"] = 0
	normWall := func(s sample) float64 { return s.WallS * s.speed() }
	if u := median(column(untraced, normWall)); u > 0 && len(traced) > 0 {
		vals["trace.overhead_frac"] = median(column(traced, normWall))/u - 1
	}
	return vals, mismatches
}

func unitScale(unit string) float64 {
	switch unit {
	case "ms":
		return 1e3
	case "us":
		return 1e6
	}
	return 1
}

// minUntraced is the fewest untraced iterations a -workload run measures,
// however long they take.
const minUntraced = 3

// measure runs iterations of w one after another until the next one would
// likely end after the window. Untraced only, unless traced: then it
// alternates untraced and traced iterations and needs one of each.
func measure(w *workload, seed int64, window float64, traced bool, spansDir string) (untraced, tr []sample) {
	start := now()
	var lifetimes []float64
	for {
		useTrace := traced && len(tr) < len(untraced)
		s := runChild(w, seed, useTrace, spansDir)
		if useTrace {
			tr = append(tr, s)
		} else {
			untraced = append(untraced, s)
		}
		lifetimes = append(lifetimes, s.LifetimeS)
		enough := len(untraced) >= minUntraced
		if traced {
			enough = len(untraced) >= 1 && len(tr) >= 1
		}
		if enough && now()-start+median(lifetimes) > window {
			return untraced, tr
		}
	}
}

// valueUnit is one metric of the one-line result.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON a -workload run prints last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// contractMain measures one workload for the window and prints the result
// line: end-to-end medians, or with traced the per-layer metrics. It
// prints nothing and fails when no iteration of a needed kind completed.
func contractMain(name string, seed int64, window float64, traced bool, spansDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	untraced, tr := measure(w, seed, window, traced, spansDir)
	okU, okT := succeeded(untraced), succeeded(tr)
	if len(okU) == 0 || (traced && len(okT) == 0) {
		return fmt.Errorf("%s: no iteration completed", name)
	}
	attempted, failed := tally(slices.Concat(untraced, tr))
	res := result{Metrics: map[string]valueUnit{}}
	if traced {
		vals, mismatches := layerValues(okU, okT, workerCount())
		failed += mismatches
		for _, def := range perLayer {
			res.Metrics[def.Name] = valueUnit{vals[def.Name], def.Unit}
		}
	} else {
		for _, st := range endToEndStats(okU) {
			res.Metrics[st.Name] = valueUnit{st.Median, st.Unit}
		}
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	return json.NewEncoder(os.Stdout).Encode(res)
}

// smokeMain runs every workload once at the -quick sizes, in this
// process, through both the experiment and the traced replay, and fails
// unless the two emit the same bytes.
func smokeMain(w io.Writer) error {
	p := params{workers: workerCount(), quick: true}
	for i := range workloads {
		wl := &workloads[i]
		outs, err := wl.run(p)
		if err != nil {
			return fmt.Errorf("smoke %s: %w", wl.name, err)
		}
		replayed, err := wl.replay(p, newTracer())
		if err != nil {
			return fmt.Errorf("smoke %s replay: %w", wl.name, err)
		}
		d1, rows, _ := check(outs, nil)
		d2, _, _ := check(replayed, nil)
		if d1 != d2 {
			return fmt.Errorf("smoke %s: replay output differs from the experiment's", wl.name)
		}
		if _, err := fmt.Fprintf(w, "smoke %-18s ok: %d rows, sha256 %s\n", wl.name, rows, d1[:16]); err != nil {
			return err
		}
	}
	return nil
}
