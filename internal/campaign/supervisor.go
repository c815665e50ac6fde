package campaign

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/routing"
)

// CellFunc runs one cell's simulation and returns its metrics. The
// supervisor wraps every invocation in panic containment, so a CellFunc
// that panics degrades into that cell's failure-manifest row rather
// than tearing down the campaign.
type CellFunc func(c Cell) (Metrics, error)

// Config shapes one campaign run.
type Config struct {
	// Workers bounds concurrent cells; ≤ 0 means one per CPU.
	Workers int
	// Retry bounds per-cell re-attempts after a failure, Backoff-style:
	// after failed attempt k the supervisor consults Retry.DelayS(k-1)
	// and retries while it allows, accumulating (never sleeping) the
	// returned delays. The zero value disables retries. Event-budget
	// exhaustion is never retried: the budget is deterministic, so a
	// re-run would exhaust identically.
	Retry routing.Backoff
	// CheckpointPath, when non-empty, streams per-cell records to this
	// file as cells complete and is what Resume reads. Empty disables
	// checkpointing.
	CheckpointPath string
	// Resume loads CheckpointPath and skips recorded cells, replaying
	// their rows verbatim — the final CSV is byte-identical to a
	// straight-through run. Without Resume, a non-empty checkpoint file
	// is an error rather than silently overwritten.
	Resume bool
	// StopAfter, when positive, runs at most this many pending cells and
	// leaves the rest for a later Resume — the deterministic stand-in
	// for an interrupted campaign (CI kills runs this way).
	StopAfter int
}

// DefaultConfig retries each failed cell twice with a short recorded
// backoff — enough to shrug off transient failures of a non-hermetic
// CellFunc without stalling on deterministic ones.
func DefaultConfig() Config {
	return Config{Retry: routing.Backoff{BaseS: 5, MaxS: 60, MaxAttempts: 2}}
}

// CellResult is one cell's outcome: a metrics row or a failure record.
type CellResult struct {
	Cell Cell
	// Attempts counts CellFunc invocations, including the successful one.
	Attempts int
	// BackoffS is the total retry delay the policy prescribed. It is
	// recorded for the manifest, never slept — campaign time is
	// simulated everywhere.
	BackoffS float64
	// Fields is the canonical comma-joined metrics row; empty on failure.
	Fields string
	// Err is the final attempt's error, sanitized to one line; empty on
	// success.
	Err string
	// FromCheckpoint marks rows replayed by Resume rather than run.
	FromCheckpoint bool
}

// Failed reports whether the cell exhausted its attempts without a row.
func (r CellResult) Failed() bool { return r.Err != "" }

// Outcome is a campaign's aggregate result. Cells holds every completed
// cell (run or replayed) in matrix order; Pending holds cells a
// StopAfter interruption left unrun.
type Outcome struct {
	Spec    Spec
	Cells   []CellResult
	Pending []Cell
}

// Failures returns the failed cells in matrix order — the failure
// manifest.
func (o *Outcome) Failures() []CellResult {
	var out []CellResult
	for _, r := range o.Cells {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// identityFields renders the columns shared by the results CSV and the
// failure manifest.
func (r CellResult) identityFields() string {
	return strings.Join([]string{
		r.Cell.ID, r.Cell.Constellation, formatIntensity(r.Cell.Intensity),
		r.Cell.Workload, string(r.Cell.Policy), fmt.Sprintf("%d", r.Attempts),
	}, ",")
}

// WriteCSV writes the successful cells' metric rows in matrix order.
// Failures are excluded (they have no metrics); WriteManifest carries
// them.
func (o *Outcome) WriteCSV(w io.Writer) error {
	header := append([]string{"cell", "constellation", "intensity", "workload", "policy", "attempts"},
		MetricFields...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range o.Cells {
		if r.Failed() {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s,%s\n", r.identityFields(), r.Fields); err != nil {
			return err
		}
	}
	return nil
}

// WriteManifest writes one row per failed cell in matrix order: the
// graceful-degradation record of what did not complete and why.
func (o *Outcome) WriteManifest(w io.Writer) error {
	header := "cell,constellation,intensity,workload,policy,attempts,backoff_s,error"
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range o.Failures() {
		if _, err := fmt.Fprintf(w, "%s,%s,%s\n", r.identityFields(), fm(r.BackoffS), r.Err); err != nil {
			return err
		}
	}
	return nil
}

// sanitize folds an error message onto one line and out of the CSV
// metacharacters, so it survives checkpoint and manifest round-trips.
func sanitize(msg string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '\t', '\n', '\r':
			return ' '
		case ',':
			return ';'
		}
		return r
	}, msg)
}

// supervise runs one cell to its final outcome: contained attempts,
// bounded recorded backoff between them, immediate surrender on
// event-budget exhaustion (deterministic — re-running reproduces it).
func supervise(c Cell, retry routing.Backoff, fn CellFunc) CellResult {
	r := CellResult{Cell: c}
	for attempt := 0; ; attempt++ {
		// One-task MapAll reuses exec's panic containment: a panicking
		// CellFunc surfaces as this attempt's error.
		out, errs, argErr := exec.MapAll(1, 1, func(int) (Metrics, error) { return fn(c) })
		r.Attempts = attempt + 1
		if argErr != nil {
			r.Err = sanitize(argErr.Error())
			return r // unreachable: arguments are statically valid
		}
		if errs == nil {
			r.Fields = out[0].Row()
			r.Err = ""
			return r
		}
		r.Err = sanitize(errs[0].Error())
		if errors.Is(errs[0], core.ErrEventBudget) {
			return r
		}
		delay, ok := retry.DelayS(attempt)
		if !ok {
			return r
		}
		r.BackoffS += delay
	}
}

// Run executes the campaign: expand the matrix, skip checkpointed
// cells, drive the rest over the exec pool with per-cell supervision,
// and stream each outcome to the checkpoint as it lands. Failed cells
// degrade into manifest rows; Run's own error is reserved for campaign
// infrastructure — an invalid spec, or a checkpoint that cannot be
// read, trusted, or written.
func Run(spec Spec, cfg Config, fn CellFunc) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, errors.New("campaign: nil cell function")
	}
	cells := spec.Cells()

	done := map[string]CellResult{}
	var cp *checkpointFile
	if cfg.CheckpointPath != "" {
		var err error
		done, cp, err = openCheckpoint(cfg.CheckpointPath, spec, cfg.Resume)
		if err != nil {
			return nil, err
		}
	}
	var pending []Cell
	for _, c := range cells {
		if _, ok := done[c.ID]; !ok {
			pending = append(pending, c)
		}
	}
	if cfg.StopAfter > 0 && len(pending) > cfg.StopAfter {
		pending = pending[:cfg.StopAfter]
	}

	// Checkpoint collector: cell closures report completions over the
	// channel (per-task-disjoint writes stay with the pool; the stream
	// is the sanctioned escape hatch) and one goroutine owns the file.
	// The buffer holds every possible record, so sends never block on a
	// slow disk.
	recCh := make(chan CellResult, len(pending))
	collectorErr := make(chan error, 1)
	go func() {
		var firstErr error
		for r := range recCh {
			if cp != nil && firstErr == nil {
				firstErr = cp.append(r)
			}
		}
		if cp != nil {
			if err := cp.close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		collectorErr <- firstErr
	}()

	results, errs, err := exec.MapAll(cfg.Workers, len(pending), func(i int) (CellResult, error) {
		r := supervise(pending[i], cfg.Retry, fn)
		recCh <- r
		return r, nil
	})
	close(recCh)
	cpErr := <-collectorErr
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e // unreachable: supervise returns outcomes, not errors
		}
	}
	if cpErr != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", cpErr)
	}

	for _, r := range results {
		done[r.Cell.ID] = r
	}
	out := &Outcome{Spec: spec}
	for _, c := range cells {
		if r, ok := done[c.ID]; ok {
			// Checkpoint-loaded records carry only the ID; restore the
			// full axis values from the matrix.
			r.Cell = c
			out.Cells = append(out.Cells, r)
		} else {
			out.Pending = append(out.Pending, c)
		}
	}
	return out, nil
}
