// Command openspace-bench regenerates the paper's figures and the
// repository's extension experiments (DESIGN.md E1–E13). Each experiment
// prints an ASCII rendering to stdout and, with -csvdir, writes a CSV for
// plotting.
//
// Usage:
//
//	openspace-bench -experiment all
//	openspace-bench -experiment fig2b -csvdir out/
//	openspace-bench -experiment fig2c -quick
//	openspace-bench -experiment capacity-scale -cpuprofile cpu.out -memprofile mem.out -trace trace.out
//
// The profiles are standard pprof and runtime/trace files (go tool pprof
// -top cpu.out); they never change stdout or a CSV byte. Each experiment
// runs under the pprof label experiment=<name>, so one profile of
// -experiment all splits by experiment (go tool pprof -tagfocus).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"github.com/openspace-project/openspace/internal/experiments"
	"github.com/openspace-project/openspace/internal/prof"
)

func main() {
	experiment := flag.String("experiment", "all",
		"one of: all, or a name from -list")
	csvDir := flag.String("csvdir", "", "directory to write per-experiment CSV files (optional)")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	workers := flag.Int("workers", 0, "parallel workers per experiment (0 = one per CPU, 1 = serial); results are identical at any setting")
	list := flag.Bool("list", false, "list registered experiments and exit")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Println(e.Name)
		}
		return
	}
	err := profiles.Run(func() error {
		return run(*experiment, *csvDir, *quick, *workers)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "openspace-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(which, csvDir string, quick bool, workers int) error {
	ran := 0
	for _, e := range experiments.Registry {
		if which != "all" && which != e.Name {
			continue
		}
		ran++
		var err error
		pprof.Do(context.Background(), pprof.Labels("experiment", e.Name), func(context.Context) {
			err = runOne(e, csvDir, quick, workers)
		})
		if err != nil {
			return err
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (try -list)", which)
	}
	return nil
}

// runOne runs one registered experiment, renders it to stdout and, with a
// csvDir, writes its CSV there.
func runOne(e experiments.Experiment, csvDir string, quick bool, workers int) error {
	fmt.Printf("=== %s ===\n", e.Name)
	res, err := e.Run(quick, workers)
	if err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	if err := res.Render(os.Stdout); err != nil {
		return fmt.Errorf("%s: render: %w", e.Name, err)
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	var csv bytes.Buffer
	if err := res.CSV(&csv); err != nil {
		return fmt.Errorf("%s: csv: %w", e.Name, err)
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(csvDir, e.Name+".csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
