package sim

import "math"

// calQueue is a calendar queue (R. Brown, CACM 1988): the event set is
// hashed by time into an array of buckets, each bucket covering one
// width-sized slice of simulated time. Enqueue appends to the target
// bucket in O(1); dequeue scans forward from the current slice and takes
// the earliest event of the first non-empty slice. With the bucket count
// resized to track the event population and the width to track the mean
// inter-event gap, both operations are O(1) amortized — the property that
// lets million-event runs replace the heap's O(log n) without changing a
// single delivery.
//
// Determinism contract: dequeue returns events in strictly increasing
// (atS, seq) order — exactly the order the binary heap produced (seq is
// unique, so the order is total). Same-slice candidates are compared by
// (atS, seq) directly, and every structural decision (resize trigger, new
// width, scan position) is a pure function of the event set, never of
// wall-clock or map iteration. The engine property tests in
// calqueue_test.go pin dequeue-order equality against the retired heap
// implementation (heapqueue_test.go) under random schedules.
type calQueue struct {
	// buckets is owner-scoped storage rewritten in place by push/pop;
	// nothing aliasing a bucket may leave the queue (scratchsafe).
	buckets [][]event //lint:scratch
	// width is the time span one bucket slice covers. Slice k covers
	// [k*width, (k+1)*width) and hashes to bucket k mod len(buckets);
	// membership tests recompute k = floor(atS/width) rather than
	// accumulating slice bounds, so float drift cannot misfile an event.
	width float64
	// curSlice is the scan cursor: no queued event lives in an earlier
	// slice (enqueue pulls the cursor back when violated).
	curSlice int64
	count    int

	// One-event peek cache so Run's peek-then-pop costs one scan, not two.
	cached   bool
	cacheB   int // bucket index of the cached minimum
	cacheI   int // position within that bucket
	cacheMin event
}

const (
	calMinBuckets = 8
	// calMinWidth floors the bucket width so pathological clustering
	// (thousands of events at one instant) cannot drive slice indices
	// beyond int64 range for any reachable simulation time.
	calMinWidth = 1e-9
)

// newCalQueue returns an empty queue sized for a handful of events.
func newCalQueue() calQueue {
	//lint:allow hotalloc one-time lazy construction reached from push's nil-buckets branch
	return calQueue{buckets: make([][]event, calMinBuckets), width: 1}
}

// Len returns the number of queued events.
func (q *calQueue) Len() int { return q.count }

// slice returns the slice index of a time under the current width.
func (q *calQueue) slice(atS float64) int64 {
	return int64(math.Floor(atS / q.width))
}

// push files an event; the engine guarantees atS is never in the past.
func (q *calQueue) push(ev event) {
	if q.buckets == nil {
		*q = newCalQueue()
	}
	s := q.slice(ev.atS)
	if q.count == 0 || s < q.curSlice {
		// The new event precedes the scan cursor: pull the cursor back so
		// the next scan starts at (or before) the earliest slice.
		q.curSlice = s
	}
	b := int(s % int64(len(q.buckets)))
	if b < 0 {
		b += len(q.buckets)
	}
	q.buckets[b] = append(q.buckets[b], ev)
	q.count++
	q.cached = false
	if q.count > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// peek returns the earliest event without removing it.
func (q *calQueue) peek() (event, bool) {
	if q.count == 0 {
		return event{}, false
	}
	if !q.cached {
		q.findMin()
	}
	return q.cacheMin, true
}

// pop removes and returns the earliest event.
func (q *calQueue) pop() (event, bool) {
	if q.count == 0 {
		return event{}, false
	}
	if !q.cached {
		q.findMin()
	}
	ev := q.cacheMin
	b := q.buckets[q.cacheB]
	q.buckets[q.cacheB] = append(b[:q.cacheI], b[q.cacheI+1:]...)
	q.count--
	q.cached = false
	if q.count < len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return ev, true
}

// findMin locates the earliest (atS, seq) event and caches its position.
// It first scans one calendar year of slices forward from the cursor; if
// the population is sparser than that (all events far in the future), it
// falls back to a direct sweep of every bucket.
func (q *calQueue) findMin() {
	nb := int64(len(q.buckets))
	for step := int64(0); step < nb; step++ {
		k := q.curSlice + step
		b := int(k % nb)
		if b < 0 {
			b += int(nb)
		}
		if q.scanBucket(b, k) {
			q.curSlice = k
			return
		}
	}
	// Sparse fallback: take the global minimum across all buckets.
	found := false
	for b, evs := range q.buckets {
		for i, ev := range evs {
			if !found || less(ev, q.cacheMin) {
				found = true
				q.cacheB, q.cacheI, q.cacheMin = b, i, ev
			}
		}
	}
	q.cached = found
	if found {
		q.curSlice = q.slice(q.cacheMin.atS)
	}
}

// scanBucket caches the minimum event of bucket b that belongs to slice k,
// reporting whether one exists.
func (q *calQueue) scanBucket(b int, k int64) bool {
	found := false
	for i, ev := range q.buckets[b] {
		if q.slice(ev.atS) != k {
			continue // an event from another calendar year sharing the bucket
		}
		if !found || less(ev, q.cacheMin) {
			found = true
			q.cacheB, q.cacheI, q.cacheMin = b, i, ev
		}
	}
	q.cached = found
	return found
}

// less is the engine's total event order: time, then scheduling sequence.
func less(a, b event) bool {
	if a.atS != b.atS { //lint:allow floateq exact order tie broken by seq keeps event order deterministic
		return a.atS < b.atS
	}
	return a.seq < b.seq
}

// resize rebuilds the calendar with nb buckets and a width tracking the
// current event spread, so the steady state keeps O(1) events per bucket
// and one dequeue scan step per event. The new width is (span/count)*3 —
// Brown's heuristic of a few events per slice — floored for clustered
// populations. Deterministic: depends only on the queued events.
func (q *calQueue) resize(nb int) {
	if nb < calMinBuckets {
		nb = calMinBuckets
	}
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, evs := range q.buckets {
		for _, ev := range evs {
			minT = math.Min(minT, ev.atS)
			maxT = math.Max(maxT, ev.atS)
		}
	}
	width := 1.0
	if q.count > 0 && maxT > minT {
		width = (maxT - minT) / float64(q.count) * 3
	}
	if width < calMinWidth {
		width = calMinWidth
	}
	old := q.buckets
	//lint:allow hotalloc doubling/halving resize amortizes to O(1) per operation
	q.buckets = make([][]event, nb)
	q.width = width
	q.cached = false
	if q.count > 0 && !math.IsInf(minT, 1) {
		q.curSlice = q.slice(minT)
	} else {
		q.curSlice = 0
	}
	for _, evs := range old {
		for _, ev := range evs {
			b := int(q.slice(ev.atS) % int64(nb))
			if b < 0 {
				b += nb
			}
			q.buckets[b] = append(q.buckets[b], ev)
		}
	}
}
