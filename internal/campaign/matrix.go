// Package campaign is the deterministic scenario-matrix runner behind
// E17 (disruption-campaign): it expands named axes — constellation
// preset × fault intensity × workload mix × routing policy — into a cell
// list with stable cell IDs and per-cell seeds, then drives one full
// simulation per cell over the internal/exec pool under a supervisor
// that contains panics, bounds retries, imposes a simulated-event
// timeout, and degrades gracefully: a failed cell becomes a
// failure-manifest row instead of aborting the campaign, and a
// checkpoint file lets an interrupted campaign resume byte-identically.
package campaign

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/faults"
)

// domainCell namespaces every cell's seed: a cell's simulation draws
// from streams rooted at DomainSeed(spec.Seed, domainCell, fnv(cellID)),
// so the cell is reproducible in isolation (-cell <id>) and independent
// of every other cell, whatever order or worker count ran it.
var domainCell = exec.Domain{Tag: "campaign/cell", ID: 130}

// domainUsers seeds per-flow user placement inside a cell, kept separate
// from the scenario's own workload stream (core/scenario, ID 2).
var domainUsers = exec.Domain{Tag: "campaign/users", ID: 131}

// axisSep joins axis values into a cell ID. Axis values must not contain
// it (Validate enforces this), so IDs parse back unambiguously.
const axisSep = "~"

// Spec is a campaign definition: the axes to cross plus the per-cell
// scenario shape. Axis values are expanded in the order listed, with the
// policy axis innermost, so cell order — and therefore row order in
// every output — is a pure function of the Spec.
type Spec struct {
	// Name labels checkpoints and output files.
	Name string
	// Constellations names constellation presets (see Constellations).
	Constellations []string
	// Intensities are fault-rate multipliers applied to faults.Default();
	// 0 disables injection for that cell (the control column).
	Intensities []float64
	// Workloads names workload presets (see Workloads).
	Workloads []string
	// Policies are the routing/recovery postures to cross.
	Policies []core.Policy
	// DurationS/IntervalS are each cell's horizon and snapshot cadence.
	DurationS, IntervalS float64
	// Seed roots every cell seed. Changing it re-randomises the whole
	// campaign; nothing else about the matrix moves.
	Seed int64
	// EventBudget bounds each cell's simulated events (0 = unlimited) —
	// the deterministic timeout the supervisor imposes.
	EventBudget uint64
}

// Cell is one point of the expanded matrix.
type Cell struct {
	// Index is the cell's position in matrix order.
	Index int
	// ID is the stable identity: axis values joined with "~". It never
	// depends on matrix position, so adding an axis value elsewhere in
	// the Spec does not re-identify existing cells.
	ID            string
	Constellation string
	Intensity     float64
	Workload      string
	Policy        core.Policy
	// Seed is the cell's root seed, derived from (Spec.Seed, ID) — see
	// domainCell.
	Seed int64
}

// CellID builds the stable identity for one axis combination:
// "<constellation>~i<intensity>~<workload>~<policy>", with the intensity
// in the shortest round-trip float format.
func CellID(constellation string, intensity float64, workload string, policy core.Policy) string {
	return constellation + axisSep + "i" + formatIntensity(intensity) +
		axisSep + workload + axisSep + string(policy)
}

func formatIntensity(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fnv1a64 hashes a cell ID into the seed-derivation chain. Inlined
// (offset/prime from the FNV spec) so the hot identity → seed mapping
// stays a pure arithmetic function with no hash.Hash plumbing.
func fnv1a64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// CellSeed derives a cell's root seed from the campaign seed and the
// cell's stable ID. Identity-keyed (not index-keyed) derivation is what
// makes -cell <id> reproduce exactly the row the full campaign emits.
func CellSeed(base int64, cellID string) int64 {
	return exec.DomainSeed(base, domainCell, int64(fnv1a64(cellID)))
}

// validAxisValue rejects axis strings that would corrupt cell IDs,
// checkpoint records, or CSV rows.
func validAxisValue(kind, v string) error {
	if v == "" {
		return fmt.Errorf("campaign: empty %s axis value", kind)
	}
	if strings.ContainsAny(v, axisSep+", \t\n") {
		return fmt.Errorf("campaign: %s axis value %q may not contain %q, commas or whitespace", kind, v, axisSep)
	}
	return nil
}

// Validate reports whether the spec expands to a well-formed matrix.
func (s Spec) Validate() error {
	if err := validAxisValue("name", s.Name); err != nil {
		return err
	}
	if len(s.Constellations) == 0 || len(s.Intensities) == 0 ||
		len(s.Workloads) == 0 || len(s.Policies) == 0 {
		return fmt.Errorf("campaign: every axis needs at least one value")
	}
	for _, c := range s.Constellations {
		if err := validAxisValue("constellation", c); err != nil {
			return err
		}
	}
	for _, w := range s.Workloads {
		if err := validAxisValue("workload", w); err != nil {
			return err
		}
	}
	for _, p := range s.Policies {
		if _, err := core.ParsePolicy(string(p)); err != nil {
			return err
		}
	}
	// !(x > 0) also rejects NaN; a spec that cannot run must fail here,
	// before it writes a checkpoint fingerprint or NaN cell IDs.
	if !(s.DurationS > 0) || !(s.IntervalS > 0) || math.IsInf(s.DurationS+s.IntervalS, 1) {
		return fmt.Errorf("campaign: duration and interval must be positive and finite")
	}
	for _, in := range s.Intensities {
		if err := faults.CheckIntensity(in); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	seen := map[string]bool{}
	for _, c := range s.Cells() {
		if seen[c.ID] {
			return fmt.Errorf("campaign: duplicate cell %s (repeated axis value)", c.ID)
		}
		seen[c.ID] = true
	}
	return nil
}

// Cells expands the matrix in canonical order: constellation outermost,
// then intensity, workload, and policy innermost.
func (s Spec) Cells() []Cell {
	cells := make([]Cell, 0, len(s.Constellations)*len(s.Intensities)*len(s.Workloads)*len(s.Policies))
	for _, con := range s.Constellations {
		for _, in := range s.Intensities {
			for _, wl := range s.Workloads {
				for _, pol := range s.Policies {
					id := CellID(con, in, wl, pol)
					cells = append(cells, Cell{
						Index:         len(cells),
						ID:            id,
						Constellation: con,
						Intensity:     in,
						Workload:      wl,
						Policy:        pol,
						Seed:          CellSeed(s.Seed, id),
					})
				}
			}
		}
	}
	return cells
}

// Find returns the cell with the given ID, if the matrix contains it.
func (s Spec) Find(id string) (Cell, bool) {
	for _, c := range s.Cells() {
		if c.ID == id {
			return c, true
		}
	}
	return Cell{}, false
}

// Fingerprint is a stable hash of everything that shapes cell identities
// and results. A checkpoint written under one fingerprint refuses to
// resume a campaign with another: resuming across a changed matrix would
// silently splice incompatible rows.
func (s Spec) Fingerprint() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('\n')
	for _, c := range s.Constellations {
		b.WriteString(c)
		b.WriteByte(';')
	}
	b.WriteByte('\n')
	for _, v := range s.Intensities {
		b.WriteString(formatIntensity(v))
		b.WriteByte(';')
	}
	b.WriteByte('\n')
	for _, w := range s.Workloads {
		b.WriteString(w)
		b.WriteByte(';')
	}
	b.WriteByte('\n')
	for _, p := range s.Policies {
		b.WriteString(string(p))
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "\n%s/%s/%d/%d",
		formatIntensity(s.DurationS), formatIntensity(s.IntervalS), s.Seed, s.EventBudget)
	return fmt.Sprintf("%016x", fnv1a64(b.String()))
}
