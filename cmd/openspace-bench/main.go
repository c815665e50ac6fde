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
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/openspace-project/openspace/internal/experiments"
)

func main() {
	experiment := flag.String("experiment", "all",
		"one of: all, or a name from -list")
	csvDir := flag.String("csvdir", "", "directory to write per-experiment CSV files (optional)")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	workers := flag.Int("workers", 0, "parallel workers per experiment (0 = one per CPU, 1 = serial); results are identical at any setting")
	list := flag.Bool("list", false, "list registered experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Println(e.Name)
		}
		return
	}
	if err := run(*experiment, *csvDir, *quick, *workers); err != nil {
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
		fmt.Printf("=== %s ===\n", e.Name)
		res, err := e.Run(quick, workers)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := res.Render(os.Stdout); err != nil {
			return fmt.Errorf("%s: render: %w", e.Name, err)
		}
		fmt.Println()
		if csvDir != "" {
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
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (try -list)", which)
	}
	return nil
}
