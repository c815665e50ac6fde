// Command bench is the repository's benchmark. It times the simulator end
// to end on four workloads and, from separately traced replays, layer by
// layer; every run checks its CSV output against the committed results.
// Build and run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh [-seed k] [-json out.json] [-spans dir]
//	bash bench/run.sh -workload fig2-paper -seed 3 -seconds 28 -trace 0
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -smoke
//
// Without -workload it runs five interleaved rounds of every workload and
// then one traced round, and prints every metric with its unit. With
// -workload it measures that workload for -seconds and prints one JSON
// line (the BENCHMARK.json contract). Every measured iteration is a fresh
// child process of this binary, run one at a time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// root is the repository root: the benchmark runs from there and reads
// results/*.csv from it.
const root = "."

func main() {
	workload := flag.String("workload", "", "measure one workload for -seconds and print a one-line JSON result")
	seed := flag.Int64("seed", 0, "added to every config seed; 0 keeps the committed seeds and the golden gate")
	seconds := flag.Float64("seconds", 28, "measurement window of a -workload run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced replays (with -workload or -child)")
	jsonOut := flag.String("json", "", "full run: also write the report as JSON to this file")
	spans := flag.String("spans", "", "write each traced replay's spans to <dir>/<workload>.spans.jsonl")
	compare := flag.Bool("compare", false, "compare two JSON reports: -compare a.json b.json")
	smoke := flag.Bool("smoke", false, "run every workload once at the -quick sizes and check determinism only")
	child := flag.String("child", "", "internal: run one iteration of the named workload and print its sample")
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = childMain(*child, *seed, *trace == 1, *spans)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two report files")
			break
		}
		err = compareMain(flag.Arg(0), flag.Arg(1), os.Stdout)
	case *smoke:
		err = smokeMain(os.Stdout)
	case *workload != "":
		err = contractMain(*workload, *seed, *seconds, *trace == 1, *spans)
	default:
		err = fullMain(*seed, *jsonOut, *spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// workerCount is the pool size every measured run uses: two workers,
// capped at the CPUs present. Children also run with GOMAXPROCS set to it.
func workerCount() int { return min(2, runtime.NumCPU()) }
