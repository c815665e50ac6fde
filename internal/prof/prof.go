// Package prof gives the command-line tools their profiling flags:
// -cpuprofile, -memprofile and -trace write standard pprof and
// runtime/trace files (go tool pprof -top cpu.out, go tool trace
// trace.out). Profiling never changes a tool's stdout or any CSV byte.
package prof

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the output paths; an empty path skips that profile.
type Flags struct {
	CPU, Mem, Trace string
}

// Register defines -cpuprofile, -memprofile and -trace on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file after the run")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace of the run to this file")
	return f
}

// Run runs fn under the CPU profiler and the execution tracer and, once fn
// succeeds, writes a heap profile.
func (f *Flags) Run(fn func() error) (err error) {
	stopCPU, err := start(f.CPU, "cpuprofile", pprof.StartCPUProfile, pprof.StopCPUProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopCPU()) }()
	stopTrace, err := start(f.Trace, "trace", trace.Start, trace.Stop)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopTrace()) }()
	if err := fn(); err != nil {
		return err
	}
	if f.Mem == "" {
		return nil
	}
	out, err := os.Create(f.Mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // the heap profile reports live objects as of the last GC
	if err := pprof.WriteHeapProfile(out); err != nil {
		return errors.Join(fmt.Errorf("memprofile: %w", err), out.Close())
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// start creates path and starts a profiler streaming into it; the returned
// function stops the profiler and closes the file. An empty path starts
// nothing.
func start(path, flagName string, begin func(w io.Writer) error, end func()) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	out, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	if err := begin(out); err != nil {
		return nil, errors.Join(fmt.Errorf("%s: %w", flagName, err), out.Close())
	}
	return func() error {
		end()
		if err := out.Close(); err != nil {
			return fmt.Errorf("%s: %w", flagName, err)
		}
		return nil
	}, nil
}
