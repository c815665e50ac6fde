// Package handover implements OpenSpace's satellite handover scheme (§2.2
// of the paper). LEO satellites cross a user's sky in minutes (Starlink
// hands over every ~15 s), so session continuity is dominated by how
// handovers work:
//
//   - Predictive (OpenSpace): the serving satellite "uses advance knowledge
//     of orbital trajectories to pick a successor" and tells the user ahead
//     of time; the user establishes the new session immediately, with no
//     re-authentication — the roaming certificate from association still
//     vouches for it.
//   - Re-association (baseline): the user only discovers loss of signal
//     after the fact, re-scans for beacons, and re-runs the RADIUS exchange
//     with its home ISP over ISLs before traffic flows again.
//
// The Timeline functions simulate both schemes over a horizon and report
// every handover with its service interruption, which experiment E5
// aggregates.
package handover

import (
	"errors"
	"fmt"
	"sort"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
)

// Sat is one satellite visible to the predictor.
type Sat struct {
	ID       string
	Provider string
	Elements orbit.Elements
}

// Predictor computes visibility-driven handover decisions for one ground
// user from public orbital knowledge.
type Predictor struct {
	sats    []Sat
	user    geo.LatLon
	minElev float64
	// scanStepS is the coarse step used when searching visibility
	// transitions; passes last minutes, so tens of seconds is safe.
	scanStepS float64
}

// NewPredictor creates a predictor. minElevationDeg is the user terminal's
// elevation mask.
func NewPredictor(sats []Sat, user geo.LatLon, minElevationDeg float64) (*Predictor, error) {
	if len(sats) == 0 {
		return nil, errors.New("handover: no satellites")
	}
	if !user.Valid() {
		return nil, fmt.Errorf("handover: invalid user position %v", user)
	}
	return &Predictor{sats: sats, user: user, minElev: minElevationDeg, scanStepS: 10}, nil
}

// visible reports whether satellite i is above the mask at t.
func (p *Predictor) visible(i int, t float64) bool {
	return p.sats[i].Elements.Visible(p.user, t, p.minElev)
}

// Best returns the closest visible satellite at t, or ok=false when the sky
// is empty (the coverage gaps of a sparse constellation).
func (p *Predictor) Best(t float64) (Sat, bool) {
	userPos := p.user.Vec3(0)
	bestIdx, bestRange := -1, 0.0
	for i := range p.sats {
		if !p.visible(i, t) {
			continue
		}
		d := p.sats[i].Elements.PositionECEF(t).DistanceKm(userPos)
		if bestIdx == -1 || d < bestRange ||
			//lint:allow floateq exact range tie broken by ID keeps selection deterministic
			(d == bestRange && p.sats[i].ID < p.sats[bestIdx].ID) {
			bestIdx, bestRange = i, d
		}
	}
	if bestIdx == -1 {
		return Sat{}, false
	}
	return p.sats[bestIdx], true
}

// VisibleUntil returns the time at which the satellite drops below the mask,
// searching from t up to t+horizonS; refined by bisection to 10 ms. If the
// satellite is visible through the whole horizon, horizon end is returned.
// If it is not visible at t, t is returned.
func (p *Predictor) VisibleUntil(satID string, t, horizonS float64) float64 {
	i := p.index(satID)
	if i < 0 || !p.visible(i, t) {
		return t
	}
	end := t + horizonS
	lo := t
	for cur := t + p.scanStepS; cur <= end; cur += p.scanStepS {
		if !p.visible(i, cur) {
			// Bisect in (lo, cur).
			hi := cur
			for hi-lo > 0.01 {
				mid := (lo + hi) / 2
				if p.visible(i, mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
			return (lo + hi) / 2
		}
		lo = cur
	}
	return end
}

// PickSuccessor selects the satellite to hand the user over to when serving
// sets: among satellites visible at the set time (excluding the serving
// one), the one that remains visible longest afterwards — minimising the
// subsequent handover rate. Returns ok=false if the sky is empty then.
func (p *Predictor) PickSuccessor(servingID string, setTimeS, horizonS float64) (Sat, bool) {
	type cand struct {
		sat   Sat
		until float64
	}
	var cands []cand
	for i := range p.sats {
		if p.sats[i].ID == servingID || !p.visible(i, setTimeS) {
			continue
		}
		until := p.VisibleUntil(p.sats[i].ID, setTimeS, horizonS)
		cands = append(cands, cand{p.sats[i], until})
	}
	if len(cands) == 0 {
		return Sat{}, false
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].until != cands[b].until { //lint:allow floateq exact sort tie-break keeps candidate order deterministic
			return cands[a].until > cands[b].until
		}
		return cands[a].sat.ID < cands[b].sat.ID
	})
	return cands[0].sat, true
}

func (p *Predictor) index(id string) int {
	for i := range p.sats {
		if p.sats[i].ID == id {
			return i
		}
	}
	return -1
}
