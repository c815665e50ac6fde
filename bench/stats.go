package main

import (
	"math"
	"sort"
)

// metricDef names one metric with its unit and the direction that is
// better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is how much worse, as a share of the base median, an
	// end-to-end metric may get before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
	// Floor is an absolute tolerance that applies when it is larger than
	// Bound × base: set-up time is short enough for process noise to
	// exceed any useful share of it.
	Floor float64 `json:"floor,omitempty"`
	// Exact marks a deterministic count, which must repeat exactly.
	Exact bool `json:"exact,omitempty"`

	// timing names the distribution (see timings) a per-layer metric
	// summarizes, and figure which summary it is: "p50", "tail" or "pct".
	timing, figure string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. failed_frac is reported by full runs only: the one-line
// result carries it as attempted/failed.
//
// Times are in reference-host seconds (see refCalS). The bounds come from
// two sets of ten seeds on a shared 2-vCPU host: calibrated times spread
// by up to 11% between runs and alloc_mb by up to 7%, since
// capacity-mega's demand draws and the campaign's fault timelines change
// with the seed; the two sets' medians differed by at most 6%.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
}

var failedFrac = metricDef{Name: "failed_frac", Unit: "fraction", Better: "lower"}

// perLayer are the metrics of single layers, from traced replays. Each
// timing distribution is reported as its median, its tail (see
// tailPercentile) and the percentile that tail is; the sample count is
// the matching calls count times trace.iterations.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string, exact bool) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, Exact: exact})
	}
	dist := func(base, unit string) {
		defs = append(defs,
			metricDef{Name: base + "_p50_" + unit, Unit: unit, Better: "lower", timing: base, figure: "p50"},
			metricDef{Name: base + "_tail_" + unit, Unit: unit, Better: "lower", timing: base, figure: "tail"},
			metricDef{Name: base + "_tail_pct", Unit: "percentile", Better: "lower", Exact: true, timing: base, figure: "pct"})
	}
	add("traffic.maxmin_s", "s", "lower", false)
	add("traffic.maxmin_calls", "count", "lower", true)
	dist("traffic.maxmin", "ms")
	add("traffic.maxflow_s", "s", "lower", false)
	add("traffic.demand_s", "s", "lower", false)
	add("traffic.network_s", "s", "lower", false)
	add("traffic.demands", "count", "lower", true)
	add("traffic.busy_s", "s", "lower", false)
	add("fluid.advance_calls", "count", "lower", true)
	dist("fluid.advance", "ms")
	add("fluid.aggregates", "count", "lower", true)
	add("fluid.transfers", "count", "lower", true)
	add("fluid.busy_s", "s", "lower", false)
	dist("topo.build", "us")
	add("topo.calls", "count", "lower", true)
	add("topo.nodes", "count", "lower", true)
	add("topo.edges", "count", "lower", true)
	add("topo.busy_s", "s", "lower", false)
	dist("geo.exact", "us")
	add("geo.calls", "count", "lower", true)
	add("geo.busy_s", "s", "lower", false)
	dist("routing.sp", "us")
	add("routing.calls", "count", "lower", true)
	add("routing.busy_s", "s", "lower", false)
	add("orbit.calls", "count", "lower", true)
	add("orbit.busy_s", "s", "lower", false)
	dist("campaign.cell", "s")
	add("campaign.cells", "count", "lower", true)
	add("campaign.busy_s", "s", "lower", false)
	add("sim.events", "count", "lower", true)
	add("sim.us_per_event", "us", "lower", false)
	add("core.transfers", "count", "higher", true)
	add("core.delivered", "count", "higher", true)
	add("core.retries", "count", "lower", true)
	add("faults.events", "count", "lower", true)
	add("exec.parallel_eff", "fraction", "higher", false)
	add("experiments.csv_s", "s", "lower", false)
	add("experiments.csv_bytes", "bytes", "lower", true)
	add("runtime.peak_rss_mb", "MB", "lower", false)
	add("runtime.gc_cycles", "count", "lower", false)
	add("runtime.mallocs", "count", "lower", false)
	add("runtime.host_speed", "ratio", "higher", false)
	add("trace.overhead_frac", "fraction", "lower", false)
	add("trace.coverage", "fraction", "higher", false)
	add("trace.iterations", "count", "higher", false)
	return defs
}()

// stat summarizes one metric over a run's samples.
type stat struct {
	metricDef
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(def metricDef, xs []float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{metricDef: def, N: len(xs), Median: med, Q1: q1, Q3: q3, Samples: xs}
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) (exclusive method) and
// statistics.median compute them. A single sample is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// tailPercentile picks the percentile a timing's tail is reported at: the
// highest of 99, 90 and 75 that has at least ten of the n samples beyond
// it, or 100 (the maximum) when none has.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 100
}

// percentile is the nearest-rank percentile of xs; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// Verdicts of a comparison between a base run a and a run b.
const (
	better     = "better"
	within     = "within bound"
	worse      = "WORSE"
	unresolved = "unresolved"
	identical  = "identical"
	differs    = "DIFFERS"
	info       = "-"
)

// tolerance is the change, in the metric's unit, that the bound allows
// around a median.
func (def metricDef) tolerance(median float64) float64 {
	return math.Max(def.Bound*math.Abs(median), def.Floor)
}

// verdict judges b against a for one metric. A count must be identical.
// A bounded metric is unresolved when either side's quartile spread is
// wider than its tolerance; otherwise it is worse when b's median is worse
// than a's by more than a's tolerance, and better when it is better by
// more than a's own spread. Unbounded metrics get no verdict.
func verdict(def metricDef, a, b stat) string {
	if def.Exact {
		if int64(math.Round(a.Median)) == int64(math.Round(b.Median)) && a.N > 0 && b.N > 0 {
			return identical
		}
		return differs
	}
	if def.Bound == 0 && def.Name != failedFrac.Name {
		return info
	}
	if a.Q3-a.Q1 > def.tolerance(a.Median) || b.Q3-b.Q1 > def.tolerance(b.Median) {
		return unresolved
	}
	gain := a.Median - b.Median // how much better b is, in the metric's unit
	if def.Better == "higher" {
		gain = -gain
	}
	switch {
	case -gain > def.tolerance(a.Median):
		return worse
	case gain > 0 && gain > a.Q3-a.Q1:
		return better
	}
	return within
}
