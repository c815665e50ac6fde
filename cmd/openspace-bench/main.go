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
//	openspace-bench -experiment capacity-scale -cpuprofile cpu.out -memprofile mem.out
//
// The profiles are standard pprof files (go tool pprof -top cpu.out); they
// never change stdout or a CSV byte.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"github.com/openspace-project/openspace/internal/experiments"
)

func main() {
	experiment := flag.String("experiment", "all",
		"one of: all, or a name from -list")
	csvDir := flag.String("csvdir", "", "directory to write per-experiment CSV files (optional)")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	workers := flag.Int("workers", 0, "parallel workers per experiment (0 = one per CPU, 1 = serial); results are identical at any setting")
	list := flag.Bool("list", false, "list registered experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Println(e.Name)
		}
		return
	}
	err := profiled(*cpuProfile, *memProfile, func() error {
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

// profiled runs fn with a CPU profile written to cpuPath and, once fn
// succeeds, a heap profile to memPath; an empty path skips that profile.
func profiled(cpuPath, memPath string, fn func() error) (err error) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return errors.Join(fmt.Errorf("cpuprofile: %w", err), f.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // the heap profile reports live objects as of the last GC
	if err := pprof.WriteHeapProfile(f); err != nil {
		return errors.Join(fmt.Errorf("memprofile: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
