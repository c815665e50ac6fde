package topo

import (
	"cmp"
	"slices"
	"sync"

	"github.com/openspace-project/openspace/internal/geo"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/phy"
)

// builder constructs snapshots of one fixed deployment (satellites,
// ground segment, feasibility config) at many timestamps. It is the
// engine behind both Build (one builder per call) and BuildTimeExpanded
// (one builder per contiguous block of steps). Each snapshot is a pure
// function of its timestamp: SnapshotAt queries a freshly filled spatial
// index for candidate sets that provably contain the feasible sets and
// filters them exactly, so the two paths are byte-identical. What a
// builder carries from one snapshot to the next is only the sorted node
// template and its scratch.
type builder struct {
	cfg  Config
	sats []SatSpec

	maxISLKm   float64 // longest feasible ISL, the geometric wiring's query radius
	attachKm   float64 // ground↔satellite query radius
	cellKm     float64 // spatial index cell: the widest query, so each reaches one cell out
	staticMode bool    // Config.StaticISLs wires the ISLs, not the geometric rule
	capped     bool    // some satellite has a MaxISLs cap, so ISLs are accepted shortest first

	// nodes is the node template, sorted by ID, with satellite positions
	// left for SnapshotAt; satellite i is nodes[rank[i]] and entity k is
	// nodes[rank[len(sats)+k]]. A one-shot Build hands it to its snapshot.
	nodes []Node

	scratch
}

// scratch is the memory a pooled builder keeps for its next deployment.
// Nothing here escapes into returned snapshots (scratchsafe checks it).
type scratch struct {
	entities    []groundEntity //lint:scratch — grounds then users, flattened
	satByID     map[string]int //lint:scratch — satellite ID → index, static mode
	staticPairs [][2]int       //lint:scratch — resolved Config.StaticISLs, static mode
	rank        []int32        //lint:scratch
	pos         []geo.Vec3     //lint:scratch
	candISL     [][2]int       //lint:scratch — candidate ISL pairs, geometric mode
	candGround  [][]int        //lint:scratch — candidate satellites per entity
	feasible    []feasiblePair //lint:scratch
	degree      []int          //lint:scratch
	links       []Edge         //lint:scratch — link l's values, endpoints aside, for arcs 2l and 2l+1 of asm
	asm         assembler      //lint:scratch
	ix          satIndex       //lint:scratch
}

// builders lends builders, with their scratch, to Build calls and
// BuildTimeExpanded blocks, so a repeat build allocates only its
// snapshot. No output depends on which builder a call gets.
var builders = sync.Pool{New: func() any { return new(builder) }}

type groundEntity struct {
	id       string
	provider string
	kind     LinkKind
	capBps   float64
	pos      geo.Vec3 // the entity's surface position, LatLon.Vec3(0)
}

type feasiblePair struct {
	i, j int
	d    float64
}

// newBuilder takes a builder from the pool and precomputes everything
// timestamp-independent: ground geometry, candidate radii from the orbit
// envelopes, the resolved explicit wiring plan if one is configured, and
// a fresh node template. The caller releases it when done.
func newBuilder(cfg Config, sats []SatSpec, grounds []GroundSpec, users []UserSpec) *builder {
	b := builders.Get().(*builder)
	b.reset(cfg, sats, grounds, users)
	return b
}

// reset sets b up for the deployment, keeping only its scratch.
func (b *builder) reset(cfg Config, sats []SatSpec, grounds []GroundSpec, users []UserSpec) {
	*b = builder{cfg: cfg, sats: sats, scratch: b.scratch}
	b.pos = slices.Grow(b.pos[:0], len(sats))[:len(sats)]
	b.degree = slices.Grow(b.degree[:0], len(sats))[:len(sats)]
	b.entities = b.entities[:0]
	for _, g := range grounds {
		b.entities = append(b.entities, groundEntity{
			id: g.ID, provider: g.Provider, kind: LinkGround,
			capBps: cfg.GroundBps, pos: g.Pos.Vec3(0),
		})
	}
	for _, u := range users {
		b.entities = append(b.entities, groundEntity{
			id: u.ID, provider: u.Provider, kind: LinkAccess,
			capBps: cfg.AccessBps, pos: u.Pos.Vec3(0),
		})
	}

	// Apogee bounds the altitude a ground terminal can see.
	maxApogeeAlt, lasers := 1.0, 0
	for i := range sats {
		if sats[i].HasLaser {
			lasers++
		}
		if sats[i].MaxISLs > 0 {
			b.capped = true
		}
		e := sats[i].Elements
		if alt := e.SemiMajorAxisKm*(1+e.Eccentricity) - geo.EarthRadiusKm; e.SemiMajorAxisKm > 0 && alt > maxApogeeAlt {
			maxApogeeAlt = alt
		}
	}
	b.attachKm = attachRadiusKm(maxApogeeAlt, cfg.MinElevationDeg)
	b.maxISLKm = cfg.ISLRangeKm
	if lasers >= 2 && cfg.LaserRangeKm > b.maxISLKm {
		b.maxISLKm = cfg.LaserRangeKm
	}

	b.cellKm = max(b.attachKm, b.maxISLKm+1)
	if len(cfg.StaticISLs) > 0 {
		b.staticMode = true
		b.resolveStaticISLs(cfg.StaticISLs)
		b.cellKm = b.attachKm
	}

	nodes := make([]Node, 0, len(sats)+len(b.entities))
	for i := range sats {
		sp := &sats[i]
		nodes = append(nodes, Node{ID: sp.ID, Kind: KindSatellite, Provider: sp.Provider, HasLaser: sp.HasLaser})
	}
	for k := range b.entities {
		e := &b.entities[k]
		kind := KindGroundStation
		if e.kind == LinkAccess {
			kind = KindUser
		}
		nodes = append(nodes, Node{ID: e.id, Kind: kind, Provider: e.provider, Pos: e.pos})
	}
	slices.SortFunc(nodes, byID)
	ix := Index{Nodes: nodes}
	b.nodes = nodes
	b.rank = slices.Grow(b.rank[:0], len(nodes))[:len(nodes)]
	for i := range sats {
		b.rank[i], _ = ix.Lookup(sats[i].ID)
	}
	for k := range b.entities {
		b.rank[len(sats)+k], _ = ix.Lookup(b.entities[k].id)
	}
}

// release drops the deployment's references and returns the builder,
// with its scratch, to the pool. The builder must not be used afterwards.
func (b *builder) release() {
	*b = builder{scratch: b.scratch}
	builders.Put(b)
}

// resolveStaticISLs maps an explicit wiring plan onto satellite indices
// in b.staticPairs, dropping pairs that name unknown satellites or
// self-loops and de-duplicating, so the plan behaves like a candidate
// set. The ID map and the pair list are the builder's scratch.
func (b *builder) resolveStaticISLs(plan []orbit.ISLPair) {
	if b.satByID == nil {
		b.satByID = make(map[string]int, len(b.sats))
	}
	idx := b.satByID
	clear(idx)
	for i := range b.sats {
		idx[b.sats[i].ID] = i
	}
	pairs := slices.Grow(b.staticPairs[:0], len(plan))
	for _, pr := range plan {
		i, okA := idx[pr.A]
		j, okB := idx[pr.B]
		if !okA || !okB || i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		pairs = append(pairs, [2]int{i, j})
	}
	slices.SortFunc(pairs, func(p, q [2]int) int { return cmp.Or(p[0]-q[0], p[1]-q[1]) })
	b.staticPairs = slices.Compact(pairs)
}

// refreshCandidates rebuilds the candidate lists from a spatial index
// over the satellite positions in b.pos. Each query runs at its exact
// feasibility radius plus a kilometre of float margin (attachKm carries
// its own). The cells are as wide as the wider query the mode runs, so
// neither query reaches more than one cell out, even with ISLs switched
// off. With no positive ISL range no pair is feasible, so the pair query
// is skipped: under ground-sized cells it would list most of the N² pairs.
func (b *builder) refreshCandidates() {
	b.ix.fill(b.pos, b.cellKm)
	if !b.staticMode {
		b.candISL = b.candISL[:0]
		if b.maxISLKm > 0 {
			b.candISL = b.ix.pairsWithin(b.maxISLKm+1, b.candISL)
		}
	}

	if cap(b.candGround) < len(b.entities) {
		b.candGround = make([][]int, len(b.entities))
	}
	b.candGround = b.candGround[:len(b.entities)]
	for k := range b.entities {
		b.candGround[k] = b.ix.within(b.entities[k].pos, b.attachKm, b.candGround[k][:0])
	}
}

// SnapshotAt assembles the snapshot at time t, the same snapshot whatever
// the builder built before, over nodes: the node template or a copy of
// it, which the snapshot keeps.
func (b *builder) SnapshotAt(t float64, nodes []Node) *Snapshot {
	for i := range b.sats {
		b.pos[i] = b.sats[i].Elements.PositionECEF(t)
	}
	b.refreshCandidates()

	for i := range b.sats {
		nodes[b.rank[i]].Pos = b.pos[i]
	}

	// Inter-satellite links: exact feasibility over the candidate pairs,
	// accepted greedily under per-satellite degree caps, shortest first
	// when a cap can refuse one — identical to filtering all N² pairs, at
	// a fraction of the scan.
	cands := b.candISL
	if b.staticMode {
		cands = b.staticPairs
	}
	b.feasibleISLs(cands)
	n := len(b.feasible) // bounds the links collected below
	for _, w := range b.candGround {
		n += len(w)
	}
	b.links = slices.Grow(b.links[:0], n)
	for i := range b.degree {
		b.degree[i] = 0
	}
	for _, p := range b.feasible {
		if b.degree[p.i] >= b.islLimit(p.i) || b.degree[p.j] >= b.islLimit(p.j) {
			continue
		}
		b.degree[p.i]++
		b.degree[p.j]++
		kind, capBps := LinkISLRF, b.cfg.RFISLBps
		if b.sats[p.i].HasLaser && b.sats[p.j].HasLaser && p.d <= b.cfg.LaserRangeKm {
			kind, capBps = LinkISLLaser, b.cfg.LaserISLBps
		}
		b.link(b.rank[p.i], b.rank[p.j], kind, p.d, capBps, b.sats[p.i].Provider != b.sats[p.j].Provider)
	}

	// Ground-station and user access links by elevation mask, over the
	// per-entity candidate satellites.
	for k := range b.entities {
		e := &b.entities[k]
		for _, i := range b.candGround[k] {
			if geo.ElevationDegFrom(e.pos, b.pos[i]) < b.cfg.MinElevationDeg {
				continue
			}
			d := e.pos.DistanceKm(b.pos[i])
			b.link(b.rank[len(b.sats)+k], b.rank[i], e.kind, d, e.capBps, e.provider != b.sats[i].Provider)
		}
	}

	return b.asm.snapshot(t, nodes, func(k int32) Edge { return b.links[k/2] })
}

// link collects the link between the nodes at positions u and v as arcs
// u → v and v → u.
func (b *builder) link(u, v int32, kind LinkKind, distKm, capBps float64, cross bool) {
	b.links = append(b.links, Edge{Kind: kind, DistanceKm: distKm,
		DelayS: distKm / phy.SpeedOfLightKmS, CapacityBps: capBps, CrossOwner: cross})
	b.asm.add(u, v)
	b.asm.add(v, u)
}

// feasibleISLs refreshes the feasible-pair scratch from the candidate
// set: exact range and line-of-sight filtering, then, when some satellite
// has a MaxISLs cap, the deterministic (distance, i, j) order the greedy
// degree-capped acceptance consumes. With no cap every feasible pair is
// accepted, and the assembler puts arcs in (From, To) order whatever order
// the unique pairs come in, so the sort would change nothing and is
// skipped. This runs once per snapshot over every candidate
// pair — the builder's inner kernel — and reuses the
// receiver's scratch so the steady state allocates nothing (see
// TestAllocGateFeasibleISLs). The result lives in b.feasible; returning
// the slice would hand callers an alias the next snapshot overwrites
// (the scratchsafe analyzer rejects that shape), so callers read the
// field through the receiver they already hold.
//
//lint:hotpath
func (b *builder) feasibleISLs(cands [][2]int) {
	b.feasible = b.feasible[:0]
	for _, p := range cands {
		i, j := p[0], p[1]
		d := b.pos[i].DistanceKm(b.pos[j])
		maxRange := b.cfg.ISLRangeKm
		if b.sats[i].HasLaser && b.sats[j].HasLaser && b.cfg.LaserRangeKm > maxRange {
			maxRange = b.cfg.LaserRangeKm
		}
		if maxRange <= 0 || d > maxRange || !geo.LineOfSight(b.pos[i], b.pos[j]) {
			continue
		}
		b.feasible = append(b.feasible, feasiblePair{i: i, j: j, d: d})
	}
	if b.capped {
		slices.SortFunc(b.feasible, cmpFeasible)
	}
}

// cmpFeasible orders candidate ISLs by distance, ties broken by the
// unique (i, j) index pair — a total order, so any sorting algorithm
// yields the same sequence the retired sort.Slice produced.
func cmpFeasible(x, y feasiblePair) int {
	if x.d != y.d { //lint:allow floateq exact sort tie-break keeps ISL pairing deterministic
		if x.d < y.d {
			return -1
		}
		return 1
	}
	if x.i != y.i {
		return x.i - y.i
	}
	return x.j - y.j
}

// islLimit is satellite i's ISL degree cap, unbounded when MaxISLs ≤ 0.
func (b *builder) islLimit(i int) int {
	if b.sats[i].MaxISLs <= 0 {
		return int(^uint(0) >> 1)
	}
	return b.sats[i].MaxISLs
}
