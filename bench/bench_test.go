package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {9, 100}, {39, 100}, {40, 75}, {99, 75}, {100, 90},
		{999, 90}, {1000, 99}, {4081, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// Spreads are judged the way Python's statistics.quantiles(n=4) and
// statistics.median compute them; the expected values below are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4.8, 5.1, 4.9, 5.0, 7.2}, 4.85, 5.0, 6.15},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(med-tc.med) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.12}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05}
	count := metricDef{Name: "topo.calls", Unit: "count", Exact: true}
	layer := metricDef{Name: "topo.busy_s", Unit: "s", Better: "lower"}
	st := func(q1, med, q3 float64) stat { return stat{N: 5, Q1: q1, Median: med, Q3: q3} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b stat
		want string
	}{
		{"same", wall, st(9.9, 10, 10.1), st(9.9, 10, 10.1), within},
		{"slower within bound", wall, st(9.9, 10, 10.1), st(11, 11.1, 11.2), within},
		{"slower past bound", wall, st(9.9, 10, 10.1), st(11.3, 11.4, 11.5), worse},
		{"faster past a's spread", wall, st(9.9, 10, 10.1), st(9.4, 9.5, 9.6), better},
		{"faster inside a's spread", wall, st(9.5, 10, 10.5), st(9.7, 9.8, 9.9), within},
		{"a too noisy", wall, st(8, 10, 12), st(9.9, 10, 10.1), unresolved},
		{"b too noisy", wall, st(9.9, 10, 10.1), st(8, 10, 12), unresolved},
		{"setup floor absorbs noise", setup, st(0.003, 0.003, 0.003), st(0.02, 0.02, 0.02), within},
		{"setup spread inside floor", setup, st(0.002, 0.0025, 0.004), st(0.002, 0.0026, 0.004), within},
		{"setup past floor", setup, st(0.003, 0.003, 0.003), st(0.06, 0.06, 0.06), worse},
		{"any new failure", failedFrac, st(0, 0, 0), st(0.01, 0.01, 0.01), worse},
		{"no failures", failedFrac, st(0, 0, 0), st(0, 0, 0), within},
		{"count identical", count, st(4081, 4081, 4081), st(4081, 4081, 4081), identical},
		{"count differs", count, st(4081, 4081, 4081), st(4080, 4080, 4080), differs},
		{"unbounded layer metric", layer, st(1, 1, 1), st(2, 2, 2), info},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCheckGolden(t *testing.T) {
	golden := []byte("n,a,b\n1,x,y\n2,x,z\n3,q,r\n")
	for _, tc := range []struct {
		name             string
		got              string
		keys             []string
		expected, failed int
	}{
		{"whole file identical", "n,a,b\n1,x,y\n2,x,z\n3,q,r\n", nil, 3, 0},
		{"one row differs", "n,a,b\n1,x,y\n2,x,Z\n3,q,r\n", nil, 3, 1},
		{"row missing", "n,a,b\n1,x,y\n3,q,r\n", nil, 3, 1},
		{"extra row", "n,a,b\n1,x,y\n2,x,z\n3,q,r\n4,s,t\n", nil, 3, 1},
		{"rows reordered", "n,a,b\n2,x,z\n1,x,y\n3,q,r\n", nil, 3, 1},
		{"header differs", "n,a,c\n1,x,y\n2,x,z\n3,q,r\n", nil, 3, 3},
		{"subset matches", "n,a,b\n2,x,z\n", []string{"2"}, 1, 0},
		{"subset row differs", "n,a,b\n2,x,y\n", []string{"2"}, 1, 1},
		{"subset row missing", "n,a,b\n3,q,r\n", []string{"2", "3"}, 2, 1},
		{"subset key not in golden", "n,a,b\n9,x,y\n", []string{"9"}, 1, 1},
	} {
		e, f := checkGolden(golden, []byte(tc.got), tc.keys)
		if e != tc.expected || f != tc.failed {
			t.Errorf("%s: checkGolden = (%d, %d), want (%d, %d)", tc.name, e, f, tc.expected, tc.failed)
		}
	}
}

// An iteration that failed outright fails as many rows as a completed one
// expects; one whose output differs from the first completed iteration's
// fails all of its rows.
func TestTallyCountsFailedIterations(t *testing.T) {
	ok := sample{Digest: "a", Expected: 10}
	for _, tc := range []struct {
		name              string
		samples           []sample
		attempted, failed int
	}{
		{"all good", []sample{ok, ok}, 20, 0},
		{"golden rows failed", []sample{ok, {Digest: "a", Expected: 10, Failed: 2}}, 20, 2},
		{"digest differs", []sample{ok, {Digest: "b", Expected: 10}}, 20, 10},
		{"iteration failed", []sample{{Err: "exit status 1"}, ok}, 20, 10},
		{"every iteration failed", []sample{{Err: "x"}, {Err: "y"}}, 2, 2},
	} {
		a, f := tally(tc.samples)
		if a != tc.attempted || f != tc.failed {
			t.Errorf("%s: tally = (%d, %d), want (%d, %d)", tc.name, a, f, tc.attempted, tc.failed)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := report{
		Host: host{Commit: "abc", GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 2, GOMAXPROCS: 2, Workers: 2, CPUModel: "test cpu"},
		Seed:   3,
		Rounds: rounds,
		Workloads: []workloadReport{{
			Name: "fig2-paper", Attempted: 670, Failed: 0,
			EndToEnd: []stat{summarize(endToEnd[0], []float64{4.8, 4.9, 5.1})},
			PerLayer: []stat{summarize(perLayer[0], []float64{1.25})},
		}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", back, rep)
	}
	if err := compareMain(path, path, io.Discard); err != nil {
		t.Errorf("a report compared with itself: %v", err)
	}
}

// Spans record only calls made from the benchmark; a layer's busy time is
// its spans' self time, which excludes any nested span.
func TestAnalyzeSelfTime(t *testing.T) {
	r := newRecorder(0)
	r.spans = []span{
		{Name: "exec.task", Start: 0, End: 10, Parent: -1},
		{Name: "topo.Build", Start: 1, End: 3, Parent: 0},
		{Name: "traffic.MaxMinFair", Start: 3, End: 9, Parent: 0},
		{Name: "routing.ShortestPath", Start: 4, End: 5, Parent: 2},
	}
	r.add("topo.nodes", 7)
	samples, values := analyze([]*recorder{r}, 10, 1)
	for name, want := range map[string]float64{
		"topo.busy_s": 2, "traffic.busy_s": 5, "routing.busy_s": 1,
		"traffic.maxmin_s": 6, "traffic.maxmin_calls": 1, "topo.calls": 1,
		"topo.nodes": 7, "trace.coverage": 0.8,
	} {
		if got := values[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := samples["topo.build"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("topo.build samples = %v, want [2]", got)
	}
}

// Every per-layer metric must be produced by layerValues, and every name
// must follow the <module>.<what> rule.
func TestLayerValuesCoverEveryMetric(t *testing.T) {
	vals, mismatches := layerValues([]sample{{WallS: 1, WorkCPUS: 2}}, []sample{{WallS: 1.1}}, 2)
	if mismatches != 0 {
		t.Errorf("mismatches = %d on one traced sample", mismatches)
	}
	modules := map[string]bool{
		"orbit": true, "geo": true, "topo": true, "routing": true, "traffic": true, "fluid": true,
		"sim": true, "core": true, "faults": true, "campaign": true, "exec": true,
		"experiments": true, "runtime": true, "trace": true,
	}
	for _, def := range perLayer {
		if _, ok := vals[def.Name]; !ok {
			t.Errorf("no value for %s", def.Name)
		}
		if module, what, ok := strings.Cut(def.Name, "."); !ok || !modules[module] || what == "" {
			t.Errorf("%s is not named <module>.<what>", def.Name)
		}
	}
	if got := vals["exec.parallel_eff"]; got != 1 {
		t.Errorf("exec.parallel_eff = %v, want 1", got)
	}
}

// BENCHMARK.json registers the workloads and metrics this program emits;
// the two must not drift apart.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &reg); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range workloads {
		names, whys = append(names, w.name), append(whys, w.why)
	}
	var regNames, regWhys []string
	for _, w := range reg.Workloads {
		regNames, regWhys = append(regNames, w.Name), append(regWhys, w.Why)
	}
	if !reflect.DeepEqual(names, regNames) || !reflect.DeepEqual(whys, regWhys) {
		t.Errorf("workloads: BENCHMARK.json has %q, the code %q", regNames, names)
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if got, want := reg.EndToEnd, strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the code %+v", got, want)
	}
	if got, want := reg.PerLayer, strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %+v, the code %+v", got, want)
	}
}

// The smoke run is the determinism check at the -quick sizes: every
// workload's experiment and its traced replay emit the same bytes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at the -quick sizes")
	}
	if err := smokeMain(io.Discard); err != nil {
		t.Fatal(err)
	}
}
