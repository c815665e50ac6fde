// Package sim provides the discrete-event simulation substrate for
// OpenSpace experiments: a deterministic event engine, metric accumulators
// (histograms/percentiles and bounded-memory sketches), and the workload
// generators that stand in for the user populations and traffic patterns
// the paper's §5(1) notes would require "extensive simulation tools not
// explored in this paper".
package sim

import (
	"errors"
	"fmt"
)

// Event is a scheduled callback.
type event struct {
	atS float64
	seq uint64 // FIFO tie-break for equal times → determinism
	fn  func(*Engine)
}

// Engine is a single-threaded discrete-event simulator. Events scheduled
// for the same instant run in scheduling order, so simulations are fully
// deterministic. The queue is a binary min-heap over (atS, seq): seq is
// unique, so the order is total and the delivery sequence depends only on
// what was scheduled, never on the heap's internal layout.
type Engine struct {
	now       float64
	seq       uint64
	events    eventQueue
	exhausted bool
	// Processed counts delivered events, for loop-guard assertions.
	Processed uint64
	// MaxEvents, when non-zero, is the simulated-event budget: Run
	// refuses to deliver more than this many events over the engine's
	// lifetime. The budget is the deterministic, wall-clock-free analogue
	// of a timeout — it depends only on the event sequence, never on host
	// speed or scheduling, so a run that exhausts it does so identically
	// on every machine and at every worker count. Exhausted reports
	// whether Run stopped on it.
	MaxEvents uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// errNilEvent is hoisted to a sentinel so the hot Schedule path carries
// no per-call error construction.
var errNilEvent = errors.New("sim: nil event function")

// Schedule enqueues fn at absolute time atS. Scheduling in the past or at
// NaN is an error — either would silently reorder causality.
//
//lint:hotpath
func (e *Engine) Schedule(atS float64, fn func(*Engine)) error {
	if fn == nil {
		return errNilEvent
	}
	if !(atS >= e.now) { // also true for NaN
		//lint:allow hotalloc cold causality-violation path, never taken in steady state
		return fmt.Errorf("sim: schedule at %.3f is not at or after now %.3f", atS, e.now)
	}
	e.events.push(event{atS: atS, seq: e.seq, fn: fn})
	e.seq++
	return nil
}

// After enqueues fn delayS seconds from now.
func (e *Engine) After(delayS float64, fn func(*Engine)) error {
	if delayS < 0 {
		return fmt.Errorf("sim: negative delay %.3f", delayS)
	}
	return e.Schedule(e.now+delayS, fn)
}

// Run executes events in time order until the queue empties, the next
// event lies past untilS, or the MaxEvents budget refuses an event at or
// before untilS. Events after untilS stay queued and the clock is left at
// untilS; a refused event stays queued too, but the clock is left at the
// last delivered event. The step loop itself allocates nothing; what the
// event callbacks allocate is their own business.
//
//lint:hotpath
func (e *Engine) Run(untilS float64) {
	e.exhausted = false
	for e.events.Len() > 0 && e.events.h[0].atS <= untilS {
		if e.MaxEvents > 0 && e.Processed >= e.MaxEvents {
			e.exhausted = true
			return
		}
		next := e.events.pop()
		e.now = next.atS
		e.Processed++
		next.fn(e)
	}
	if e.now < untilS {
		e.now = untilS
	}
}

// Exhausted reports whether the last Run stopped on the MaxEvents budget:
// an event it could have delivered was refused. A run that drained its
// queue or reached its horizon on exactly the budget is not exhausted.
func (e *Engine) Exhausted() bool { return e.exhausted }

// eventQueue is the engine's pending-event set, a binary min-heap in
// (atS, seq) order. push and pop are container/heap's Push and Pop
// hand-rolled, because container/heap boxes every event in an interface.
type eventQueue struct {
	// h is owner-scoped storage rewritten in place by push and pop;
	// nothing aliasing it may leave the queue (scratchsafe).
	h []event //lint:scratch
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.h) }

// push appends ev and sifts it up.
func (q *eventQueue) push(ev event) {
	q.h = append(q.h, ev)
	h := q.h
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop swaps the root to the end, sifts the new root down over the rest,
// and removes and returns the end. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := q.h
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && less(h[r], h[j]) {
			j = r
		}
		if !less(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	ev := h[n]
	h[n] = event{} // release the callback for collection
	q.h = h[:n]
	return ev
}

// less is the engine's total event order: time, then scheduling sequence.
func less(a, b event) bool {
	if a.atS != b.atS { //lint:allow floateq exact order tie broken by seq keeps event order deterministic
		return a.atS < b.atS
	}
	return a.seq < b.seq
}
