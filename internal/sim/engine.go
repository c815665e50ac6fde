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
// deterministic. The queue is a calendar queue — O(1) amortized schedule
// and dispatch — whose dequeue order is byte-identical to the binary heap
// it replaced (see calqueue.go for the contract and its property tests).
type Engine struct {
	now     float64
	seq     uint64
	events  calQueue
	stopped bool
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
func NewEngine() *Engine { return &Engine{events: newCalQueue()} }

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

// Stop halts Run after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue empties, Stop is
// called, the clock passes untilS (events after untilS stay queued and
// the clock is left at untilS), or the MaxEvents budget is exhausted (the
// clock is left at the last delivered event). The step loop itself
// allocates nothing; what the event callbacks allocate is their own
// business.
//
//lint:hotpath
func (e *Engine) Run(untilS float64) {
	e.stopped = false
	for e.events.Len() > 0 && !e.stopped {
		if e.MaxEvents > 0 && e.Processed >= e.MaxEvents {
			return
		}
		next, _ := e.events.peek()
		if next.atS > untilS {
			e.now = untilS
			return
		}
		e.events.pop()
		e.now = next.atS
		e.Processed++
		next.fn(e)
	}
	if !e.stopped && e.now < untilS {
		e.now = untilS
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.Len() }

// Exhausted reports whether the engine has spent its MaxEvents budget —
// the signal that a Run stopped on the simulated-event timeout rather
// than draining its queue or reaching the horizon.
func (e *Engine) Exhausted() bool { return e.MaxEvents > 0 && e.Processed >= e.MaxEvents }
