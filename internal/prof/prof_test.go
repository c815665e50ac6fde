package prof

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestRunWritesEveryProfile(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := Register(fs)
	paths := map[string]string{}
	for _, name := range []string{"cpuprofile", "memprofile", "trace"} {
		paths[name] = filepath.Join(dir, name+".out")
	}
	if err := fs.Parse([]string{"-cpuprofile", paths["cpuprofile"], "-memprofile", paths["memprofile"], "-trace", paths["trace"]}); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := f.Run(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Run did not call fn")
	}
	for name, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("-%s: %s missing or empty (err %v)", name, p, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	mem := filepath.Join(dir, "mem.out")
	f := &Flags{Mem: mem, Trace: filepath.Join(dir, "trace.out")}
	if err := f.Run(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want fn's error", err)
	}
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Errorf("heap profile written after a failed run (stat err %v)", err)
	}
	called := false
	bad := &Flags{CPU: filepath.Join(dir, "no", "such", "dir", "cpu.out")}
	if err := bad.Run(func() error { called = true; return nil }); err == nil {
		t.Fatal("an uncreatable -cpuprofile path must fail the run")
	}
	if called {
		t.Error("fn ran although the profile could not be started")
	}
	if err := (&Flags{}).Run(func() error { return nil }); err != nil {
		t.Fatalf("no profiles: %v", err)
	}
}
