package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// origin anchors the benchmark's clock.
var origin = time.Now()

// now is the one place the benchmark reads the clock: every wall time and
// span boundary is seconds since origin, on the monotonic clock.
func now() float64 { return time.Since(origin).Seconds() }

// span is one timed call into a layer's public function.
type span struct {
	Name   string  `json:"name"` // <module>.<Function>
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into the same task's spans; -1 at a task root
	Task   int     `json:"task"`   // exec task ID; -1 for the replay's own goroutine
}

// recorder holds the spans and work counts of one task. Each exec task
// creates its own and returns it in its result slot, so no two workers
// ever write the same recorder.
type recorder struct {
	task   int
	spans  []span
	open   []int
	counts map[string]int64
}

func newRecorder(task int) *recorder {
	return &recorder{task: task, counts: map[string]int64{}}
}

// begin opens a span nested in the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: now(), Parent: parent, Task: r.task})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	r.spans[id].End = now()
	r.open = r.open[:len(r.open)-1]
}

// add counts work done at a layer boundary.
func (r *recorder) add(counter string, v int64) { r.counts[counter] += v }

// tracer gathers the recorders of one replay: its own goroutine's, plus
// one per exec task, handed over after the pool returns.
type tracer struct {
	main     *recorder
	tasks    []*recorder
	nextTask int
}

func newTracer() *tracer { return &tracer{main: newRecorder(-1)} }

// reserve returns the first of n task IDs for one exec.Map call.
func (t *tracer) reserve(n int) int {
	base := t.nextTask
	t.nextTask += n
	return base
}

func (t *tracer) collect(r *recorder) { t.tasks = append(t.tasks, r) }

func (t *tracer) recorders() []*recorder { return append([]*recorder{t.main}, t.tasks...) }

// timings maps the spans whose per-call durations are reported as
// distributions to the distribution's name.
var timings = map[string]string{
	"traffic.MaxMinFair":        "traffic.maxmin",
	"fluid.Advance":             "fluid.advance",
	"topo.Build":                "topo.build",
	"geo.ExactCoverageFraction": "geo.exact",
	"routing.ShortestPath":      "routing.sp",
	"campaign.RunCell":          "campaign.cell",
}

// totals maps spans whose summed duration is reported on its own.
var totals = map[string]string{
	"traffic.MaxMinFair":        "traffic.maxmin_s",
	"traffic.MaxFlow":           "traffic.maxflow_s",
	"traffic.BuildDemandMatrix": "traffic.demand_s",
	"traffic.NewNetwork":        "traffic.network_s",
	"experiments.CSV":           "experiments.csv_s",
}

// callCounts maps layers and spans to the metric counting their calls.
var callCounts = map[string]string{
	"orbit":              "orbit.calls",
	"topo":               "topo.calls",
	"geo":                "geo.calls",
	"routing":            "routing.calls",
	"traffic.MaxMinFair": "traffic.maxmin_calls",
	"fluid.Advance":      "fluid.advance_calls",
	"campaign.RunCell":   "campaign.cells",
}

// layers whose self time is reported as <layer>.busy_s. exec task spans
// are not a layer: their self time is the replay's own glue.
var busyLayers = []string{"orbit", "topo", "geo", "routing", "traffic", "fluid", "campaign", "experiments"}

// analyze reduces one replay's spans to per-call samples (seconds, keyed
// by timing base name) and per-iteration values: busy (self) time per
// layer, summed durations, call and work counts, and trace coverage —
// layer self time over the wall time of every worker.
func analyze(recs []*recorder, wallS float64, workers int) (map[string][]float64, map[string]float64) {
	samples := map[string][]float64{}
	values := map[string]float64{}
	busy := map[string]float64{}
	for _, r := range recs {
		child := make([]float64, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range r.spans {
			d := s.End - s.Start
			layer, _, _ := strings.Cut(s.Name, ".")
			busy[layer] += d - child[i]
			if base, ok := timings[s.Name]; ok {
				samples[base] = append(samples[base], d)
			}
			if name, ok := totals[s.Name]; ok {
				values[name] += d
			}
			if name, ok := callCounts[s.Name]; ok {
				values[name]++
			}
			if name, ok := callCounts[layer]; ok {
				values[name]++
			}
		}
		for k, v := range r.counts {
			values[k] += float64(v)
		}
	}
	var covered float64
	for _, l := range busyLayers {
		values[l+".busy_s"] = busy[l]
		covered += busy[l]
	}
	if wallS > 0 && workers > 0 {
		values["trace.coverage"] = covered / (wallS * float64(workers))
	}
	if ev := values["sim.events"]; ev > 0 {
		values["sim.us_per_event"] = values["campaign.busy_s"] * 1e6 / ev
	}
	return samples, values
}

// writeSpans writes a replay's spans as JSON lines, ordered by task and
// start time, to <dir>/<workload>.spans.jsonl.
func writeSpans(dir, name string, recs []*recorder) error {
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Task != all[j].Task {
			return all[i].Task < all[j].Task
		}
		return all[i].Start < all[j].Start
	})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close() //lint:allow errdrop the encode error is the one reported
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //lint:allow errdrop the flush error is the one reported
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
