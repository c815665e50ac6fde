// Package mac implements the medium-access-control schemes OpenSpace
// considers for its links (§2.1 of the paper):
//
//   - CSMA/CA for inter-satellite RF channels — the survey the paper cites
//     found it "allows for flexibility in synchronization between satellites,
//     however is prone to higher overhead and corresponding larger latency
//     due to Inter-Frame Spacing and backoff window requirements". The
//     simulator here quantifies exactly that overhead.
//   - TDMA as the coordinated alternative (the paper leaves better real-time
//     MACs to future work; TDMA is the natural ablation baseline).
//
// The CSMA/CA and TDMA models are slot-based discrete simulations with
// deterministic seeded arrivals, so every experiment is reproducible.
package mac

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Stats summarises one MAC simulation run.
type Stats struct {
	Offered         int           // packets that arrived
	Delivered       int           // packets successfully transmitted
	Collisions      int           // transmission attempts that collided
	Attempts        int           // total transmission attempts
	MeanAccessDelay time.Duration // arrival → completed transmission, mean
	P95AccessDelay  time.Duration
	MaxAccessDelay  time.Duration
	Utilization     float64 // fraction of airtime carrying successful payload
	OverheadFrac    float64 // fraction of busy airtime that is not payload
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("mac{offered %d, delivered %d, collisions %d, mean delay %v, p95 %v, util %.3f}",
		s.Offered, s.Delivered, s.Collisions, s.MeanAccessDelay, s.P95AccessDelay, s.Utilization)
}

// delayStats fills the delay aggregates of st from per-packet delays
// measured in slots of the given duration.
func delayStats(st *Stats, delaysSlots []int, slot time.Duration) {
	if len(delaysSlots) == 0 {
		return
	}
	sort.Ints(delaysSlots)
	var sum int64
	for _, d := range delaysSlots {
		sum += int64(d)
	}
	st.MeanAccessDelay = time.Duration(sum/int64(len(delaysSlots))) * slot
	st.P95AccessDelay = time.Duration(delaysSlots[(len(delaysSlots)-1)*95/100]) * slot
	st.MaxAccessDelay = time.Duration(delaysSlots[len(delaysSlots)-1]) * slot
}

// bernoulliArrivals generates, per station, the slot indices at which new
// packets arrive: a Bernoulli process with per-slot probability
// rate·slotSeconds, the discrete analogue of Poisson arrivals.
func bernoulliArrivals(stations, slots int, perStationRate float64, slot time.Duration, rng *rand.Rand) [][]int {
	p := perStationRate * slot.Seconds()
	if p > 1 {
		p = 1
	}
	arr := make([][]int, stations)
	for s := 0; s < stations; s++ {
		for t := 0; t < slots; t++ {
			if rng.Float64() < p {
				arr[s] = append(arr[s], t)
			}
		}
	}
	return arr
}
