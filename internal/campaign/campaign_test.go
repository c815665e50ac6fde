package campaign

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/routing"
)

// testSpec is a small matrix for supervisor tests: 2×2×1×2 = 8 cells.
func testSpec() Spec {
	return Spec{
		Name:           "test-campaign",
		Constellations: []string{"alpha", "beta"},
		Intensities:    []float64{0, 2.5},
		Workloads:      []string{"w"},
		Policies:       []core.Policy{core.PolicyOnDemand, core.PolicyDTN},
		DurationS:      100,
		IntervalS:      10,
		Seed:           7,
	}
}

// fakeCellFunc derives metrics purely from the cell identity, so runs
// are deterministic at any worker count without real simulations.
func fakeCellFunc(c Cell) (Metrics, error) {
	s := uint64(c.Seed)
	return Metrics{
		Availability:  float64(s%997) / 997,
		DeliveryRatio: float64(s%499) / 499,
		P50Ms:         float64(s % 200),
		P95Ms:         float64(s % 1000),
		Attempted:     int64(s % 10_000),
		Delivered:     int64(s % 9_000),
		Events:        s % 100_000,
	}, nil
}

func TestCellIDsStableAndSeedsDistinct(t *testing.T) {
	spec := testSpec()
	cells := spec.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	if cells[0].ID != "alpha~i0~w~ondemand" {
		t.Errorf("first cell ID = %q", cells[0].ID)
	}
	if cells[7].ID != "beta~i2.5~w~dtn" {
		t.Errorf("last cell ID = %q", cells[7].ID)
	}
	ids := map[string]bool{}
	seeds := map[int64]bool{}
	for _, c := range cells {
		ids[c.ID] = true
		seeds[c.Seed] = true
		if c.Seed != CellSeed(spec.Seed, c.ID) {
			t.Errorf("cell %s seed is not identity-derived", c.ID)
		}
	}
	if len(ids) != 8 || len(seeds) != 8 {
		t.Fatalf("ids/seeds not distinct: %d/%d", len(ids), len(seeds))
	}
	// Identity-keyed: the same axis combination seeds identically in a
	// different matrix (so -cell reproduces full-campaign rows).
	if CellSeed(spec.Seed, cells[3].ID) != cells[3].Seed {
		t.Error("seed changed with matrix context")
	}
	if c, ok := spec.Find("beta~i2.5~w~dtn"); !ok || c.Index != 7 {
		t.Errorf("Find = %+v, %v", c, ok)
	}
	if _, ok := spec.Find("nope"); ok {
		t.Error("Find should miss unknown IDs")
	}
}

func TestSpecValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(s *Spec)
	}{
		{"separator in axis value", func(s *Spec) { s.Constellations = []string{"with~sep"} }},
		{"whitespace in axis value", func(s *Spec) { s.Workloads = []string{"has space"} }},
		{"unknown policy", func(s *Spec) { s.Policies = []core.Policy{"flooding"} }},
		{"duplicate axis value", func(s *Spec) { s.Intensities = []float64{1, 1} }},
		{"zero duration", func(s *Spec) { s.DurationS = 0 }},
		{"NaN duration", func(s *Spec) { s.DurationS = nan }},
		{"+Inf duration", func(s *Spec) { s.DurationS = inf }},
		{"zero interval", func(s *Spec) { s.IntervalS = 0 }},
		{"NaN interval", func(s *Spec) { s.IntervalS = nan }},
		{"+Inf interval", func(s *Spec) { s.IntervalS = inf }},
		{"NaN intensity", func(s *Spec) { s.Intensities = []float64{0, nan} }},
		{"negative intensity", func(s *Spec) { s.Intensities = []float64{-1} }},
		{"+Inf intensity", func(s *Spec) { s.Intensities = []float64{inf, 1} }},
	}
	for _, base := range []Spec{testSpec(), QuickSpec()} {
		if err := base.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			bad := base
			tc.mutate(&bad)
			if err := bad.Validate(); err == nil {
				t.Errorf("%s: %s should fail", base.Name, tc.name)
			}
		}
	}
	good, bad := testSpec(), testSpec()
	bad.DurationS = 0
	if good.Fingerprint() == bad.Fingerprint() {
		t.Error("fingerprint must move with the spec")
	}
}

func TestSuperviseRetriesThenSucceeds(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	fn := func(c Cell) (Metrics, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return Metrics{}, fmt.Errorf("transient %d", calls)
		}
		return Metrics{Availability: 1}, nil
	}
	retry := routing.Backoff{BaseS: 2, MaxS: 100, MaxAttempts: 5}
	r := supervise(Cell{ID: "c"}, retry, fn)
	if r.Failed() {
		t.Fatalf("supervise failed: %s", r.Err)
	}
	if r.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", r.Attempts)
	}
	// Two retries at exponential backoff 2, 4 — recorded, never slept.
	if r.BackoffS != 6 {
		t.Errorf("backoffS = %v, want 6", r.BackoffS)
	}
}

func TestSuperviseNeverRetriesEventBudget(t *testing.T) {
	calls := 0
	fn := func(c Cell) (Metrics, error) {
		calls++
		return Metrics{}, fmt.Errorf("cell halted: %w", core.ErrEventBudget)
	}
	r := supervise(Cell{ID: "c"}, routing.Backoff{BaseS: 1, MaxS: 10, MaxAttempts: 5}, fn)
	if !r.Failed() || calls != 1 || r.Attempts != 1 {
		t.Errorf("budget exhaustion retried: calls=%d attempts=%d err=%q", calls, r.Attempts, r.Err)
	}
}

// TestRunGracefulDegradation is the acceptance scenario: one panicking
// cell and one timed-out cell degrade into exactly two manifest rows
// while every other cell completes.
func TestRunGracefulDegradation(t *testing.T) {
	spec := testSpec()
	cells := spec.Cells()
	panicID, budgetID := cells[1].ID, cells[5].ID
	fn := func(c Cell) (Metrics, error) {
		switch c.ID {
		case panicID:
			panic("cell exploded")
		case budgetID:
			return Metrics{}, fmt.Errorf("stopped after 10 events: %w", core.ErrEventBudget)
		}
		return fakeCellFunc(c)
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	out, err := Run(spec, cfg, fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pending) != 0 || len(out.Cells) != len(cells) {
		t.Fatalf("campaign did not complete: %d cells, %d pending", len(out.Cells), len(out.Pending))
	}
	fails := out.Failures()
	if len(fails) != 2 {
		t.Fatalf("failures = %d, want exactly 2", len(fails))
	}
	if fails[0].Cell.ID != panicID || fails[1].Cell.ID != budgetID {
		t.Errorf("failed cells %s, %s; want %s, %s in matrix order",
			fails[0].Cell.ID, fails[1].Cell.ID, panicID, budgetID)
	}
	if !strings.Contains(fails[0].Err, "cell exploded") {
		t.Errorf("panic not in manifest row: %q", fails[0].Err)
	}
	if fails[0].Attempts != cfg.Retry.MaxAttempts+1 {
		t.Errorf("panicking cell attempts = %d, want retries exhausted (%d)",
			fails[0].Attempts, cfg.Retry.MaxAttempts+1)
	}
	if fails[1].Attempts != 1 {
		t.Errorf("budget cell attempts = %d, want 1 (no retry on deterministic timeout)", fails[1].Attempts)
	}
	var csv, manifest strings.Builder
	if err := out.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := out.WriteManifest(&manifest); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(csv.String(), "\n"); n != 1+len(cells)-2 {
		t.Errorf("CSV rows = %d, want header + %d", n, len(cells)-2)
	}
	if n := strings.Count(manifest.String(), "\n"); n != 3 {
		t.Errorf("manifest rows = %d lines, want header + 2", n)
	}
	if strings.Contains(csv.String(), panicID) {
		t.Error("failed cell leaked into the results CSV")
	}
}

func runToCSV(t *testing.T, spec Spec, cfg Config, fn CellFunc) string {
	t.Helper()
	out, err := Run(spec, cfg, fn)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := out.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	serial := runToCSV(t, spec, Config{Workers: 1}, fakeCellFunc)
	parallel := runToCSV(t, spec, Config{Workers: 8}, fakeCellFunc)
	if serial != parallel {
		t.Errorf("CSV differs across worker counts:\n%s\nvs\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "alpha~i0~w~ondemand,alpha,0,w,ondemand,1,") {
		t.Errorf("CSV missing identity columns:\n%s", serial)
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	spec := testSpec()
	straight := runToCSV(t, spec, Config{Workers: 4}, fakeCellFunc)

	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.ckpt")
	out1, err := Run(spec, Config{Workers: 4, CheckpointPath: path, StopAfter: 3}, fakeCellFunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1.Pending) == 0 || len(out1.Cells) != 3 || len(out1.Pending) != 5 {
		t.Fatalf("interrupted run: %d cells, %d pending, want 3/5", len(out1.Cells), len(out1.Pending))
	}
	out2, err := Run(spec, Config{Workers: 4, CheckpointPath: path, Resume: true}, fakeCellFunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Pending) != 0 {
		t.Fatalf("resume left %d cells pending", len(out2.Pending))
	}
	replayed := 0
	for _, r := range out2.Cells {
		if r.FromCheckpoint {
			replayed++
		}
	}
	if replayed != 3 {
		t.Errorf("replayed %d cells from checkpoint, want 3", replayed)
	}
	var b strings.Builder
	if err := out2.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != straight {
		t.Errorf("resumed CSV differs from straight-through:\n%s\nvs\n%s", b.String(), straight)
	}
}

func TestCheckpointSurvivesTornFinalRecord(t *testing.T) {
	spec := testSpec()
	straight := runToCSV(t, spec, Config{Workers: 1}, fakeCellFunc)

	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.ckpt")
	if _, err := Run(spec, Config{Workers: 1, CheckpointPath: path, StopAfter: 4}, fakeCellFunc); err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-line, as a kill -9 during append would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := Run(spec, Config{Workers: 1, CheckpointPath: path, Resume: true}, fakeCellFunc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pending) != 0 {
		t.Fatalf("resume after torn record left %d pending", len(out.Pending))
	}
	var b strings.Builder
	if err := out.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != straight {
		t.Error("CSV after torn-record resume differs from straight-through")
	}
}

func TestCheckpointRefusesMismatchesAndOverwrites(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.ckpt")
	if _, err := Run(spec, Config{Workers: 1, CheckpointPath: path, StopAfter: 2}, fakeCellFunc); err != nil {
		t.Fatal(err)
	}
	// A fresh (non-resume) run must refuse the existing records.
	if _, err := Run(spec, Config{Workers: 1, CheckpointPath: path}, fakeCellFunc); err == nil {
		t.Error("fresh run over a non-empty checkpoint should fail")
	}
	// A changed matrix must refuse to resume.
	changed := spec
	changed.Seed = 99
	if _, err := Run(changed, Config{Workers: 1, CheckpointPath: path, Resume: true}, fakeCellFunc); err == nil {
		t.Error("resume across a changed fingerprint should fail")
	}
	// Resume with a missing file is a fresh start, not an error.
	out, err := Run(spec, Config{Workers: 1, CheckpointPath: filepath.Join(dir, "new.ckpt"), Resume: true}, fakeCellFunc)
	if err != nil || len(out.Pending) != 0 {
		t.Errorf("resume-from-nothing: %v, pending=%d", err, len(out.Pending))
	}
}

func TestFailureRowsResumeVerbatim(t *testing.T) {
	spec := testSpec()
	failID := spec.Cells()[2].ID
	fn := func(c Cell) (Metrics, error) {
		if c.ID == failID {
			return Metrics{}, fmt.Errorf("halted: %w", core.ErrEventBudget)
		}
		return fakeCellFunc(c)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.ckpt")
	if _, err := Run(spec, Config{Workers: 1, CheckpointPath: path, StopAfter: 4}, fn); err != nil {
		t.Fatal(err)
	}
	// Resume with a CellFunc that would now succeed: the recorded
	// failure must be replayed, not re-run — resumed outputs are
	// byte-identical by construction, not by luck.
	out, err := Run(spec, Config{Workers: 1, CheckpointPath: path, Resume: true}, fakeCellFunc)
	if err != nil {
		t.Fatal(err)
	}
	fails := out.Failures()
	if len(fails) != 1 || fails[0].Cell.ID != failID || !fails[0].FromCheckpoint {
		t.Fatalf("failure row not replayed: %+v", fails)
	}
}
