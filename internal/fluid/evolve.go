package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"github.com/openspace-project/openspace/internal/exec"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

// Evolver advances a ClassMatrix through topology/fault epochs. Each
// AdvanceOn call realises the epoch's Poisson arrivals per aggregate,
// pools them with the backlog carried from earlier epochs, offers the
// pooled bytes to traffic.MaxMinFair over the epoch's Network, and
// de-aggregates the allocation into delivered/latency/retry counters.
// The whole evolution is sequential and deterministic: identical inputs
// give identical Results at any worker count.
type Evolver struct {
	m   *ClassMatrix
	cfg Config
	gws []traffic.Gateway

	res *Result

	// decileBytes[c][d] is class c's transfer size at the midpoint of
	// decile d, the ten sizes deaggregate spreads each delivery over.
	decileBytes [][10]float64

	// Per-aggregate backlog: transfers that arrived but were not served,
	// pooled across epochs. backlogAgeE is the age in epochs of the oldest
	// pooled transfer — an approximation (FIFO service is assumed inside a
	// pool), which is what bounds retry bookkeeping to O(aggregates).
	backlogT    []int64
	backlogB    []float64
	backlogAgeE []int

	// Fault-visibility state for interruption accounting (see
	// Result.Interrupted): faultsActive mirrors whether the caller has a
	// fault overlay installed on the snapshots it feeds Advance, and
	// prevCityGW holds the previous epoch's city→gateway mapping
	// (prevValid guards the first epoch, which has no predecessor).
	faultsActive bool
	prevValid    bool
	prevCityGW   []string

	// Per-epoch scratch, sized once at construction and reused by every
	// AdvanceOn so the realise/group/carry/deaggregate kernels allocate
	// nothing in steady state (see TestAllocGateEvolverKernels). The
	// //lint:scratch tags put every buffer under the scratchsafe escape
	// check: nothing aliasing them may outlive the AdvanceOn that filled
	// them. rng is a single scratch generator Reseed-ed per (aggregate,
	// epoch) — the identical stream exec.RNG would construct, without the
	// two heap objects per draw site.
	rng        *rand.Rand        //lint:scratch
	lit        []traffic.Gateway //lint:scratch
	cityGW     []string          //lint:scratch
	poolT      []int64           //lint:scratch
	poolB      []float64         //lint:scratch
	oldT       []int64           //lint:scratch
	served     []float64         //lint:scratch
	delay      []pathDelay       //lint:scratch
	entries    []groupEntry      //lint:scratch
	groupStart []int32           //lint:scratch
	demands    []traffic.Demand  //lint:scratch
}

// Result accumulates ScenarioResult-compatible counters across epochs.
// "Transfers" below are transport attempts: transfers whose ingress and
// egress gateway coincide never enter the space segment and are counted
// in LocalTransfers only, mirroring DemandMatrix.LocalUsers.
type Result struct {
	Users    int
	Epochs   int
	HorizonS float64
	// DarkEpochs counts epochs with no lit gateway at all — every arrival
	// goes straight to backlog.
	DarkEpochs int

	TransfersAttempted int64
	TransfersDelivered int64
	LocalTransfers     int64
	BytesDelivered     int64
	// Retries counts transfer-epochs spent waiting in backlog: each
	// unserved transfer re-offers once per subsequent epoch, the fluid
	// analogue of core's per-flow retry events.
	Retries int64
	// Recovered counts backlogged transfers that a later epoch delivered.
	Recovered int64
	// Abandoned counts transfers dropped after MaxRetryEpochs epochs in
	// backlog — the fluid analogue of exhausting the retry budget.
	Abandoned int64
	// Interrupted counts in-flight interruption events while faults are
	// active: backlogged transfers whose ingress or egress gateway mapping
	// changed between consecutive fault-active epochs (the overlay severed
	// or restored a gateway, forcing their cities elsewhere). It is the
	// fluid analogue of core's per-flow DroppedTerminals counter; the
	// SetFaultsActive gate keeps fault-free runs byte-identical to runs
	// that predate the counter.
	Interrupted int64
	// PendingTransfers is the backlog remaining after the last epoch.
	PendingTransfers int64

	// Latency pools delivered-transfer latencies across all classes;
	// PerClass splits the same counters by traffic class.
	Latency  *sim.Sketch
	PerClass []ClassResult

	carriedBpsDt float64
}

// ClassResult is one traffic class's slice of the counters.
type ClassResult struct {
	Name               string
	TransfersAttempted int64
	TransfersDelivered int64
	BytesDelivered     int64
	Latency            *sim.Sketch
}

// CarriedBps is the time-averaged carried capacity over the horizon, 0
// before any epoch.
func (r *Result) CarriedBps() float64 {
	if r.HorizonS <= 0 {
		return 0
	}
	return r.carriedBpsDt / r.HorizonS
}

// DeliveredFraction is delivered/attempted transport transfers, 1 with no
// attempts.
func (r *Result) DeliveredFraction() float64 {
	if r.TransfersAttempted == 0 {
		return 1
	}
	return float64(r.TransfersDelivered) / float64(r.TransfersAttempted)
}

// NewEvolver prepares an evolution of m between the given gateways.
func NewEvolver(m *ClassMatrix, cfg Config, gws []traffic.Gateway) (*Evolver, error) {
	cfg = cfg.withDefaults()
	if m == nil || len(m.Aggregates) == 0 {
		return nil, fmt.Errorf("fluid: empty class matrix")
	}
	if len(gws) == 0 {
		return nil, fmt.Errorf("fluid: no gateways")
	}
	res := &Result{
		Users:   m.Users,
		Latency: sim.DefaultSketch(),
	}
	decileBytes := make([][10]float64, len(m.Classes))
	for c, cl := range m.Classes {
		res.PerClass = append(res.PerClass, ClassResult{Name: cl.Name, Latency: sim.DefaultSketch()})
		for d := range decileBytes[c] {
			decileBytes[c][d] = cl.QuantileBytes((float64(d) + 0.5) / 10)
		}
	}
	n := len(m.Aggregates)
	return &Evolver{
		m:           m,
		cfg:         cfg,
		gws:         gws,
		res:         res,
		decileBytes: decileBytes,
		backlogT:    make([]int64, n),
		backlogB:    make([]float64, n),
		backlogAgeE: make([]int, n),
		prevCityGW:  make([]string, len(m.Cities)),
		rng:         exec.ScratchRNG(),
		lit:         make([]traffic.Gateway, 0, len(gws)),
		cityGW:      make([]string, len(m.Cities)),
		poolT:       make([]int64, n),
		poolB:       make([]float64, n),
		oldT:        make([]int64, n),
		served:      make([]float64, n),
		delay:       make([]pathDelay, n),
		entries:     make([]groupEntry, 0, n),
		groupStart:  make([]int32, 0, n+1),
		demands:     make([]traffic.Demand, 0, n),
	}, nil
}

// groupEntry is one aggregate's contribution to a routed commodity.
// Sorted by (src, dst, class, k), runs of equal (src, dst, class) are the
// demand groups, members in ascending aggregate order — the same member
// order and float summation order the retired map-of-groups
// implementation produced, so every counter stays bit-identical.
type groupEntry struct {
	src, dst string
	class    int
	k        int
}

// cmpGroupEntry is a total order (k is unique per epoch), so the grouped
// runs are independent of the sort algorithm.
func cmpGroupEntry(a, b groupEntry) int {
	if c := strings.Compare(a.src, b.src); c != 0 {
		return c
	}
	if c := strings.Compare(a.dst, b.dst); c != 0 {
		return c
	}
	if a.class != b.class {
		return a.class - b.class
	}
	return a.k - b.k
}

// sameCommodity reports whether two entries share a routed commodity.
func sameCommodity(a, b groupEntry) bool {
	return a.src == b.src && a.dst == b.dst && a.class == b.class
}

// Advance evolves the matrix across one epoch [t0, t1) over the given
// snapshot (fault overlays already applied by the caller), capacitated by
// traffic.DefaultCapacityModel: AdvanceOn over a Network of its own.
func (e *Evolver) Advance(snap *topo.Snapshot, t0, t1 float64, epoch int) error {
	if err := checkSpan(t0, t1); err != nil {
		return err
	}
	net := traffic.NewNetwork(snap)
	net.Recapacitate(traffic.DefaultCapacityModel())
	return e.AdvanceOn(net, t0, t1, epoch)
}

// checkSpan rejects an epoch span that is not positive and finite.
func checkSpan(t0, t1 float64) error {
	if dt := t1 - t0; !(dt > 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("fluid: epoch [%.3f, %.3f) has span %v, want positive and finite", t0, t1, dt)
	}
	return nil
}

// AdvanceOn evolves the matrix across one epoch [t0, t1) over net.Snap
// (fault overlays already applied by the caller) at net's capacities.
// epoch indexes the aggregate arrival streams and must be distinct per
// call. A span that is not positive and finite fails before any state
// changes. net is only read and routed on, so evolvers may share one
// Network per epoch: each gateway pair is then routed once for all of
// them (see traffic.Network).
func (e *Evolver) AdvanceOn(net *traffic.Network, t0, t1 float64, epoch int) error {
	if err := checkSpan(t0, t1); err != nil {
		return err
	}
	dt := t1 - t0
	snap := net.Snap

	// Lit gateways: present in the snapshot with at least one live link.
	// Fault masks that sever a gateway remove its edges in the overlay,
	// which is exactly what re-routes its cities elsewhere.
	e.lit = e.lit[:0]
	for _, g := range e.gws {
		if snap.Node(g.ID) != nil && len(snap.Neighbors(g.ID)) > 0 {
			e.lit = append(e.lit, g)
		}
	}
	for i, c := range e.m.Cities {
		e.cityGW[i] = ""
		if len(e.lit) > 0 {
			e.cityGW[i] = traffic.NearestGatewayID(e.lit, c.Pos)
		}
	}

	// Interruption accounting: while faults are active, backlogged
	// transfers whose gateway mapping moved since the previous epoch were
	// in flight through infrastructure that changed under them. The count
	// runs before realiseEpoch so backlog that the new mapping settles
	// trivially (coincident endpoints) is still seen as interrupted first.
	if e.faultsActive && e.prevValid {
		for k := range e.m.Aggregates {
			if e.backlogT[k] == 0 {
				continue
			}
			a := &e.m.Aggregates[k]
			if e.cityGW[a.Src] != e.prevCityGW[a.Src] || e.cityGW[a.Dst] != e.prevCityGW[a.Dst] {
				e.res.Interrupted += e.backlogT[k]
			}
		}
	}
	copy(e.prevCityGW, e.cityGW)
	e.prevValid = true

	// Realise this epoch's arrivals and pool them with the backlog.
	e.realiseEpoch(dt, epoch)

	if len(e.lit) == 0 {
		e.res.DarkEpochs++
		e.carryBacklog(nil, 0)
		e.res.Epochs++
		e.res.HorizonS += dt
		return nil
	}

	// One max-min fair pass per epoch over the grouped commodities.
	e.groupDemands(dt)
	alloc, err := traffic.MaxMinFair(net, e.demands, traffic.AllocConfig{KPaths: e.cfg.KPaths})
	if err != nil {
		return fmt.Errorf("fluid: epoch %d allocation: %w", epoch, err)
	}

	for k := range e.served { // reset per-aggregate σ and path delay
		e.served[k] = 0
		e.delay[k] = pathDelay{}
	}
	for i := range alloc.Demands {
		da := &alloc.Demands[i]
		sigma := 0.0
		if da.Path != nil && da.OfferedBps > 0 {
			sigma = da.RateBps / da.OfferedBps
		}
		pd := pathDelayOf(net, alloc, da.Arcs, dt)
		for _, ge := range e.entries[e.groupStart[i]:e.groupStart[i+1]] {
			e.served[ge.k] = sigma
			e.delay[ge.k] = pd
		}
	}
	e.carryBacklog(e.served, dt)
	e.deaggregate(dt)

	e.res.carriedBpsDt += alloc.CarriedBps() * dt
	e.res.Epochs++
	e.res.HorizonS += dt
	return nil
}

// realiseEpoch draws each aggregate's Poisson arrivals, settles the
// trivial coincident-gateway cases, pools the rest with carried backlog
// into the scratch pool slices, and emits one group entry per offerable
// aggregate. The pool is what gets offered; σ of it will be delivered.
//
//lint:hotpath
func (e *Evolver) realiseEpoch(dt float64, epoch int) {
	e.entries = e.entries[:0]
	for k := range e.m.Aggregates {
		e.poolT[k], e.poolB[k], e.oldT[k] = 0, 0, 0
	}
	for k := range e.m.Aggregates {
		a := &e.m.Aggregates[k]
		exec.Reseed(e.rng, a.Seed, int64(epoch))
		arrivals := poisson(e.rng, a.LambdaPerS*dt)
		cls := &e.res.PerClass[a.Class]
		src, dst := e.cityGW[a.Src], e.cityGW[a.Dst]
		if len(e.lit) > 0 && src == dst {
			// Never enters the space segment; excluded like LocalUsers.
			e.res.LocalTransfers += arrivals
			if e.backlogT[k] > 0 {
				// Backlog from epochs when the endpoints mapped to
				// different gateways drains trivially once they coincide;
				// it adds no transport latency.
				e.res.TransfersDelivered += e.backlogT[k]
				cls.TransfersDelivered += e.backlogT[k]
				delivered := int64(e.backlogB[k] + 0.5)
				e.res.BytesDelivered += delivered
				cls.BytesDelivered += delivered
				e.res.Recovered += e.backlogT[k]
				e.backlogT[k], e.backlogB[k], e.backlogAgeE[k] = 0, 0, 0
			}
			continue
		}
		e.res.TransfersAttempted += arrivals
		cls.TransfersAttempted += arrivals
		e.oldT[k] = e.backlogT[k]
		e.poolT[k] = e.backlogT[k] + arrivals
		e.poolB[k] = e.backlogB[k] + float64(arrivals)*a.MeanBytes
		if e.poolT[k] == 0 || len(e.lit) == 0 {
			continue
		}
		e.entries = append(e.entries, groupEntry{src: src, dst: dst, class: a.Class, k: k})
	}
}

// groupDemands sorts the epoch's entries into commodity runs and builds
// one traffic.Demand per run, offered loads summed in ascending aggregate
// order. groupStart[i] is run i's first entry index; a final sentinel
// closes the last run. Sorted key order means the allocator
// (deterministic in input order) sees a canonical input.
//
//lint:hotpath
func (e *Evolver) groupDemands(dt float64) {
	slices.SortFunc(e.entries, cmpGroupEntry)
	e.demands = e.demands[:0]
	e.groupStart = e.groupStart[:0]
	for i := 0; i < len(e.entries); {
		j := i
		offered := 0.0
		for ; j < len(e.entries) && sameCommodity(e.entries[i], e.entries[j]); j++ {
			offered += e.poolB[e.entries[j].k] * 8 / dt
		}
		e.groupStart = append(e.groupStart, int32(i))
		e.demands = append(e.demands, traffic.Demand{Src: e.entries[i].src, Dst: e.entries[i].dst, OfferedBps: offered})
		i = j
	}
	e.groupStart = append(e.groupStart, int32(len(e.entries)))
}

// pathDelay caches the latency ingredients of one routed path.
type pathDelay struct {
	propS  float64
	hops   int
	bpsEff float64 // bottleneck capacity deflated by residual utilisation
	capped float64 // transmission-time ceiling (the epoch span)
	routed bool
}

// pathDelayOf extracts propagation, hop count and effective bottleneck
// bandwidth for a path given as edge positions in net.Snap. The effective
// bandwidth deflates the bottleneck capacity by the residual (1 − ρ) with
// ρ capped at 0.99 — the standard fluid heuristic for queueing inflation
// near saturation.
func pathDelayOf(net *traffic.Network, alloc *traffic.Allocation, arcs []int32, dt float64) pathDelay {
	if len(arcs) == 0 {
		return pathDelay{}
	}
	pd := pathDelay{routed: true, capped: dt, hops: len(arcs)}
	bottleneck := math.Inf(1)
	maxU := 0.0
	edges := net.Snap.Index().Edges
	for _, j := range arcs {
		pd.propS += edges[j].DelayS
		if c := net.CapacityBps(j); c < bottleneck {
			bottleneck = c
		}
		if u := alloc.Utilization(j); u > maxU {
			maxU = u
		}
	}
	if math.IsInf(bottleneck, 1) || bottleneck <= 0 {
		pd.routed = false
		return pd
	}
	if maxU > 0.99 {
		maxU = 0.99
	}
	pd.bpsEff = bottleneck * (1 - maxU)
	return pd
}

// carryBacklog settles each aggregate's pool: the served fraction leaves,
// the rest ages in backlog, and backlog older than the retry budget is
// abandoned. served == nil means a dark epoch (σ = 0 everywhere).
//
//lint:hotpath
func (e *Evolver) carryBacklog(served []float64, dt float64) {
	for k := range e.m.Aggregates {
		sigma := 0.0
		if served != nil {
			sigma = served[k]
		}
		deliveredT := int64(math.Floor(sigma*float64(e.poolT[k]) + 0.5))
		if deliveredT > e.poolT[k] {
			deliveredT = e.poolT[k]
		}
		remainT := e.poolT[k] - deliveredT
		remainB := e.poolB[k] * (1 - sigma)
		if remainT == 0 {
			e.backlogT[k], e.backlogB[k], e.backlogAgeE[k] = 0, 0, 0
			continue
		}
		// FIFO within the pool: delivery drains the oldest transfers, so
		// the survivors' age is the old age + 1 if any old transfer
		// remains, else 1 (only this epoch's arrivals wait).
		age := 1
		if e.oldT[k] > deliveredT {
			age = e.backlogAgeE[k] + 1
		}
		if age > e.cfg.MaxRetryEpochs {
			e.res.Abandoned += remainT
			e.backlogT[k], e.backlogB[k], e.backlogAgeE[k] = 0, 0, 0
			continue
		}
		// Surviving transfers re-offer next epoch: one retry each.
		e.res.Retries += remainT
		e.backlogT[k], e.backlogB[k], e.backlogAgeE[k] = remainT, remainB, age
	}
	e.res.PendingTransfers = 0
	for _, t := range e.backlogT {
		e.res.PendingTransfers += t
	}
}

// deaggregate turns each aggregate's served share back into transfer
// counters and latency mass. Latency for a transfer of size s is
// propagation + per-hop processing + s·8/effective-bandwidth (capped at
// the epoch span); sizes are sampled at the class distribution's decile
// midpoints, so an aggregate's delivered count spreads over ten analytic
// quantiles instead of materialising per-transfer samples.
//
//lint:hotpath
func (e *Evolver) deaggregate(dt float64) {
	for k := range e.m.Aggregates {
		a := &e.m.Aggregates[k]
		sigma := e.served[k]
		deliveredT := int64(math.Floor(sigma*float64(e.poolT[k]) + 0.5))
		if deliveredT > e.poolT[k] {
			deliveredT = e.poolT[k]
		}
		if deliveredT == 0 {
			continue
		}
		deliveredB := int64(sigma*e.poolB[k] + 0.5)
		cls := &e.res.PerClass[a.Class]
		e.res.TransfersDelivered += deliveredT
		cls.TransfersDelivered += deliveredT
		e.res.BytesDelivered += deliveredB
		cls.BytesDelivered += deliveredB
		if rec := min(deliveredT, e.oldT[k]); rec > 0 {
			e.res.Recovered += rec
		}
		pd := e.delay[k]
		if !pd.routed || pd.bpsEff <= 0 {
			continue
		}
		base := pd.propS + float64(pd.hops)*perHopS
		per, rem := uint64(deliveredT)/10, uint64(deliveredT)%10
		for d, size := range e.decileBytes[a.Class] {
			w := per
			if d == 5 {
				w += rem // remainder mass sits at the median decile
			}
			if w == 0 {
				continue
			}
			tx := size * 8 / pd.bpsEff
			if tx > pd.capped {
				tx = pd.capped
			}
			lat := base + tx
			e.res.Latency.AddN(lat, w)
			cls.Latency.AddN(lat, w)
		}
	}
}

// SetFaultsActive tells the evolver whether a fault overlay is currently
// installed on the snapshots the next Advance calls will see. core's
// fault-transition handler flips it as masks fill and drain; while
// active, gateway-mapping changes between epochs are charged to
// Result.Interrupted. Fault-free callers never call this, so their
// results are untouched by the accounting.
func (e *Evolver) SetFaultsActive(active bool) { e.faultsActive = active }

// Result returns the accumulated counters. The pointer stays live across
// further Advance calls.
func (e *Evolver) Result() *Result { return e.res }

// poisson draws a Poisson variate with the given mean: Knuth's product
// method for small means, a rounded normal approximation for large ones
// (exact sampling there would cost O(mean) multiplies per aggregate).
// Both branches consume the rng deterministically.
func poisson(rng *rand.Rand, mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean < 64 {
		limit := math.Exp(-mean)
		k := int64(0)
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
	v := math.Round(mean + math.Sqrt(mean)*rng.NormFloat64())
	if v < 0 {
		v = 0
	}
	return int64(v)
}
