package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// rounds is how many untraced iterations a full run makes per workload.
const rounds = 5

// host describes the machine and build a report was measured on.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of every measured child
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
}

// report is a full run, as -json writes it and -compare reads it.
type report struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Rounds    int              `json:"rounds"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	EndToEnd  []stat `json:"end_to_end"`
	PerLayer  []stat `json:"per_layer"`
}

// fullMain runs rounds interleaved untraced rounds, round k starting at
// workload k mod 4 so drift spreads across workloads, then one traced
// round. It prints the report (and with jsonPath writes it), and fails if
// any golden row failed.
func fullMain(seed int64, jsonPath, spansDir string) error {
	untraced := make([][]sample, len(workloads))
	for k := 0; k < rounds; k++ {
		for j := range workloads {
			i := (k + j) % len(workloads)
			fmt.Fprintf(os.Stderr, "round %d/%d: %s\n", k+1, rounds, workloads[i].name)
			untraced[i] = append(untraced[i], runChild(&workloads[i], seed, false, ""))
		}
	}
	rep := report{Host: hostInfo(), Seed: seed, Rounds: rounds}
	failures := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(os.Stderr, "traced round: %s\n", w.name)
		traced := []sample{runChild(w, seed, true, spansDir)}
		attempted, failed := tally(slices.Concat(untraced[i], traced))
		okU := succeeded(untraced[i])
		vals, mismatches := layerValues(okU, succeeded(traced), workerCount())
		failed += mismatches
		failures += failed
		wr := workloadReport{Name: w.name, Attempted: attempted, Failed: failed, EndToEnd: endToEndStats(okU)}
		wr.EndToEnd = append(wr.EndToEnd, summarize(failedFrac, []float64{float64(failed) / float64(max(attempted, 1))}))
		for _, def := range perLayer {
			wr.PerLayer = append(wr.PerLayer, summarize(def, []float64{vals[def.Name]}))
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		return err
	}
	if jsonPath != "" {
		if err := writeReport(jsonPath, rep); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d golden rows or counts failed", failures)
	}
	return nil
}

func printReport(w io.Writer, rep report) error {
	bw := bufio.NewWriter(w)
	h := rep.Host
	fmt.Fprintf(bw, "host: %s, %s %s/%s, %d CPUs, GOMAXPROCS %d, %d workers, commit %s\n",
		h.CPUModel, h.GoVersion, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.Workers, h.Commit)
	fmt.Fprintf(bw, "seed %d, %d untraced rounds + 1 traced round; closed loop, one iteration at a time\n", rep.Seed, rep.Rounds)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(bw, "\n== %s: %d/%d golden rows reproduced ==\n", wr.Name, wr.Attempted-wr.Failed, wr.Attempted)
		for _, s := range wr.EndToEnd {
			fmt.Fprintf(bw, "  %-24s %12.6g %-8s [q1 %.6g, q3 %.6g] n=%d\n", s.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(bw, "  per layer, traced replay (layers this workload never calls omitted):\n")
		for _, s := range wr.PerLayer {
			if s.Median != 0 {
				fmt.Fprintf(bw, "  %-24s %12.6g %s\n", s.Name, s.Median, s.Unit)
			}
		}
	}
	return bw.Flush()
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareMain prints, per workload and metric, both medians with their
// quartiles, the ratio b/a, and a verdict. It fails when any bounded
// metric is worse, any count differs, or b lacks a workload or metric.
func compareMain(pathA, pathB string, w io.Writer) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n",
		pathA, a.Host.Commit, a.Seed, pathB, b.Host.Commit, b.Seed)
	bad := 0
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(wb workloadReport) bool { return wb.Name == wa.Name })
		if i < 0 {
			fmt.Fprintf(bw, "\n== %s: missing from b ==\n", wa.Name)
			bad++
			continue
		}
		fmt.Fprintf(bw, "\n== %s ==\n", wa.Name)
		statsB := slices.Concat(b.Workloads[i].EndToEnd, b.Workloads[i].PerLayer)
		for _, sa := range slices.Concat(wa.EndToEnd, wa.PerLayer) {
			j := slices.IndexFunc(statsB, func(sb stat) bool { return sb.Name == sa.Name })
			if j < 0 {
				fmt.Fprintf(bw, "  %-24s missing from b\n", sa.Name)
				bad++
				continue
			}
			sb := statsB[j]
			v := verdict(sa.metricDef, sa, sb)
			if v == worse || v == differs {
				bad++
			}
			ratio := "n/a"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.4f", sb.Median/sa.Median)
			}
			fmt.Fprintf(bw, "  %-24s a %.6g [%.6g, %.6g]  b %.6g [%.6g, %.6g] %s  b/a %s (base a)  %s\n",
				sa.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, sa.Unit, ratio, v)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse, differing or missing", bad)
	}
	return nil
}

// hostInfo gathers the report's host metadata.
func hostInfo() host {
	return host{
		Commit:     readCommit(root),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: workerCount(),
		Workers:    workerCount(),
		CPUModel:   cpuModel(),
	}
}

// readCommit resolves HEAD from the repository's .git directory without
// running git; "unknown" outside a git checkout.
func readCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// cpuModel reads the CPU model name from /proc/cpuinfo, where it exists.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
