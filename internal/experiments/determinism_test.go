package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestRegistry is the worker-invariance test for every registered
// experiment. The harness guarantee is that output is bitwise identical at
// any worker count, because each task's RNG is derived from its logical
// coordinates rather than threaded through a shared stream; this pins it
// at the CSV byte level on each entry's quick sweep. The full-size CSVs are
// pinned separately against results/ by CI's golden job.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			serial := quickCSV(t, e, 1)
			if parallel := quickCSV(t, e, 4); parallel != serial {
				t.Errorf("CSV differs between workers=1 and workers=4:\n--- serial ---\n%s--- parallel ---\n%s",
					serial, parallel)
			}
			lines := strings.Split(strings.TrimRight(serial, "\n"), "\n")
			if len(lines) < 2 {
				t.Fatalf("CSV has no data rows:\n%s", serial)
			}
			if e.Name == "users-scale" {
				// The fluid sweep must carry real traffic, or the comparison
				// above is vacuously between zeros.
				col := slices.Index(strings.Split(lines[0], ","), "transfers_delivered")
				if col < 0 {
					t.Fatalf("header %q has no transfers_delivered column", lines[0])
				}
				for _, line := range lines[1:] {
					if strings.Split(line, ",")[col] == "0" {
						t.Errorf("row %q delivered nothing", line)
					}
				}
			}
		})
	}
}

func quickCSV(t *testing.T, e Experiment, workers int) string {
	t.Helper()
	r, err := e.Run(true, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFig2bCSVEmitsAllSweptN pins the fix for the dropped-row bug: N
// where zero trials found a path (the paper's below-critical-mass region)
// must still appear in the CSV, with empty latency fields and the
// path_fraction that shows the "~4 satellites minimum" observation.
func TestFig2bCSVEmitsAllSweptN(t *testing.T) {
	cfg := DefaultFig2b()
	// A single satellite almost never bridges São Paulo → London, so with
	// few trials the N=1 point reliably has no latency sample.
	cfg.MinSats, cfg.MaxSats, cfg.Step, cfg.Trials = 1, 13, 3, 4
	r, err := Fig2b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sweptPoints := 5 // N = 1, 4, 7, 10, 13
	if got := len(lines) - 1; got != sweptPoints {
		t.Fatalf("CSV rows = %d, want %d (every swept N):\n%s", got, sweptPoints, buf.String())
	}
	if len(r.Latency.Points) >= sweptPoints {
		t.Skip("every point found a path; dropped-row regression not exercised")
	}
	// Rows without a latency sample carry empty latency fields but a real
	// path fraction.
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			t.Fatalf("row %q has %d fields, want 4", line, len(fields))
		}
		if fields[3] == "" {
			t.Errorf("row %q missing path_fraction", line)
		}
	}
}
