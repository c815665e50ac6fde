package topo

import (
	"fmt"
	"math"
	"slices"

	"github.com/openspace-project/openspace/internal/exec"
)

// TimeExpanded is a series of snapshots at a fixed cadence — the network's
// public, precomputable evolution (§2.2). Proactive routing computes paths
// on each snapshot ahead of time; the handover layer reads consecutive
// snapshots to pick successors.
type TimeExpanded struct {
	StartS    float64
	IntervalS float64
	Snaps     []*Snapshot
}

// timeExpandedBlock is how many consecutive snapshots share one builder.
// A block amortises the builder's sorted node template over its steps;
// no snapshot depends on another, so the series is identical at any
// worker count and every snapshot is byte-identical to a from-scratch
// Build at its timestamp.
const timeExpandedBlock = 16

// BuildTimeExpanded constructs snapshots at startS, startS+intervalS, …
// covering [startS, startS+horizonS]. Steps are grouped into contiguous
// blocks that run in parallel on cfg.Workers workers (one per CPU when
// ≤0). Results are collected in time order and are identical at any
// worker count. The interval must be positive and the horizon finite and
// non-negative; an infinite interval gives the one snapshot at startS.
func BuildTimeExpanded(startS, horizonS, intervalS float64, cfg Config, sats []SatSpec, grounds []GroundSpec, users []UserSpec) (*TimeExpanded, error) {
	span := horizonS / intervalS
	switch {
	case !(intervalS > 0):
		return nil, fmt.Errorf("topo: horizon %g s, interval %g s: interval must be positive", horizonS, intervalS)
	case !(horizonS >= 0) || math.IsInf(horizonS, 1):
		return nil, fmt.Errorf("topo: horizon %g s, interval %g s: horizon must be finite and non-negative", horizonS, intervalS)
	case !(span < math.MaxInt):
		return nil, fmt.Errorf("topo: horizon %g s, interval %g s: too many snapshots to count", horizonS, intervalS)
	}
	steps := int(span) + 1
	blocks := (steps + timeExpandedBlock - 1) / timeExpandedBlock
	blockSnaps, err := exec.Map(cfg.Workers, blocks, func(bi int) ([]*Snapshot, error) {
		lo := bi * timeExpandedBlock
		hi := lo + timeExpandedBlock
		if hi > steps {
			hi = steps
		}
		b := newBuilder(cfg, sats, grounds, users)
		defer b.release()
		out := make([]*Snapshot, 0, hi-lo)
		for i := lo; i < hi; i++ {
			t := startS
			if i > 0 { // keeps an infinite interval's 0·∞ out of the first step
				t += float64(i) * intervalS
			}
			out = append(out, b.SnapshotAt(t, slices.Clone(b.nodes)))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	snaps := make([]*Snapshot, 0, steps)
	for _, bs := range blockSnaps {
		snaps = append(snaps, bs...)
	}
	return &TimeExpanded{StartS: startS, IntervalS: intervalS, Snaps: snaps}, nil
}

// At returns the snapshot in force at time t: the latest snapshot whose
// time is ≤ t, clamped to the series bounds.
func (te *TimeExpanded) At(t float64) *Snapshot {
	if len(te.Snaps) == 0 {
		return nil
	}
	idx := int((t - te.StartS) / te.IntervalS)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(te.Snaps) {
		idx = len(te.Snaps) - 1
	}
	return te.Snaps[idx]
}
