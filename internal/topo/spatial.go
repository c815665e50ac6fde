package topo

import (
	"math"
	"slices"

	"github.com/openspace-project/openspace/internal/geo"
)

// satIndex is a uniform cell grid over satellite ECEF positions — the
// spatial index that replaces the O(N²) all-pairs scans of snapshot
// construction. Cells are cubes of cellKm kilometres keyed by their
// integer coordinates; a range query enumerates only the cells a ball
// overlaps, so candidate generation is linear in the fleet size times the
// (bounded) neighbourhood occupancy instead of quadratic in the fleet.
//
// The index is purely a pruning structure: it may return candidates
// beyond the query radius (cell corners), and callers re-apply the exact
// feasibility predicates. It never misses a point within the radius, so a
// build that filters index candidates is byte-identical to one that
// filters all pairs.
//
// Each occupied cell has a slot, numbered in order of first occupancy,
// and the members of all slots are one list in CSR form, so refilling the
// index allocates nothing once its tables have grown.
type satIndex struct {
	cellKm  float64
	cells   map[[3]int32]int32 //lint:scratch — occupied cell → slot
	keys    [][3]int32         //lint:scratch — slot → cell
	slot    []int32            //lint:scratch — satellite → slot
	off     []int32            //lint:scratch — slot s holds members[off[s]:off[s+1]]
	members []int32            //lint:scratch — satellite indices, ascending per slot
	near    []int32            //lint:scratch — occupied slots around one cell
}

// fill buckets the positions into cells of the given positive size,
// replacing what the index held. Cell size trades lookup fan-out against
// candidate tightness; pairsWithin and within are exact-superset queries
// at any size.
func (ix *satIndex) fill(pos []geo.Vec3, cellKm float64) {
	ix.cellKm = cellKm
	if ix.cells == nil {
		ix.cells = make(map[[3]int32]int32, len(pos))
	}
	clear(ix.cells)
	ix.keys, ix.slot = ix.keys[:0], ix.slot[:0]
	for _, p := range pos {
		k := ix.key(p)
		s, ok := ix.cells[k]
		if !ok {
			s = int32(len(ix.keys))
			ix.cells[k] = s
			ix.keys = append(ix.keys, k)
		}
		ix.slot = append(ix.slot, s)
	}
	// A counting sort by slot: off[s] serves as slot s's fill cursor,
	// which leaves it at the next slot's start; then shift it back.
	ix.off = slices.Grow(ix.off[:0], len(ix.keys)+1)[:len(ix.keys)+1]
	ix.members = slices.Grow(ix.members[:0], len(pos))[:len(pos)]
	rowStarts(ix.off, ix.slot)
	for i, s := range ix.slot {
		ix.members[ix.off[s]] = int32(i)
		ix.off[s]++
	}
	copy(ix.off[1:], ix.off[:len(ix.keys)])
	ix.off[0] = 0
}

func (ix *satIndex) key(p geo.Vec3) [3]int32 {
	return [3]int32{
		int32(math.Floor(p.X / ix.cellKm)),
		int32(math.Floor(p.Y / ix.cellKm)),
		int32(math.Floor(p.Z / ix.cellKm)),
	}
}

// reach returns how many cells out a ball of radius rKm can spill.
func (ix *satIndex) reach(rKm float64) int32 {
	return int32(math.Ceil(rKm / ix.cellKm))
}

// neighbours sets ix.near to the occupied slots of the cells within r cells
// of base, in cell-lexicographic order.
func (ix *satIndex) neighbours(base [3]int32, r int32) {
	ix.near = ix.near[:0]
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for dz := -r; dz <= r; dz++ {
				if s, ok := ix.cells[[3]int32{base[0] + dx, base[1] + dy, base[2] + dz}]; ok {
					ix.near = append(ix.near, s)
				}
			}
		}
	}
}

// pairsWithin visits every unordered index pair (i < j) whose separation
// can be ≤ rKm: all pairs co-resident within reach cells. Each call
// visit(i, js) stands for the pairs (i, j), j in js, one run per
// neighbouring cell, so the visitor's loop, not a call, is paid per pair.
// Each pair is visited exactly once, from its lower index; the
// neighbourhood is looked up once per occupied cell. The order is
// deterministic but carries no meaning: the builder sorts the feasible
// pairs by a total order.
func (ix *satIndex) pairsWithin(rKm float64, visit func(i int, js []int32)) {
	r := ix.reach(rKm)
	for s, k := range ix.keys {
		ix.neighbours(k, r)
		for _, i := range ix.members[ix.off[s]:ix.off[s+1]] {
			for _, t := range ix.near {
				// A cell's members ascend, so i's partners are a suffix.
				js := ix.members[ix.off[t]:ix.off[t+1]]
				if lo, _ := slices.BinarySearch(js, i+1); lo < len(js) {
					visit(int(i), js[lo:])
				}
			}
		}
	}
}

// within appends to dst every satellite index whose distance to p can be
// ≤ rKm, then sorts the result ascending so callers see a canonical
// order regardless of cell layout.
func (ix *satIndex) within(p geo.Vec3, rKm float64, dst []int) []int {
	ix.neighbours(ix.key(p), ix.reach(rKm))
	start := len(dst)
	for _, s := range ix.near {
		for _, i := range ix.members[ix.off[s]:ix.off[s+1]] {
			dst = append(dst, int(i))
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// attachRadiusKm bounds how far a ground terminal can see a satellite:
// the slant range to the highest satellite at the elevation mask, plus a
// kilometre of float margin so the index never prunes a point the exact
// elevation test would accept. Masks below the nadir clamp to the
// through-Earth maximum.
func attachRadiusKm(maxAltKm, minElevationDeg float64) float64 {
	if maxAltKm <= 0 {
		maxAltKm = 1
	}
	if minElevationDeg < -90 {
		minElevationDeg = -90
	}
	return geo.SlantRangeKm(maxAltKm, minElevationDeg) + 1
}
