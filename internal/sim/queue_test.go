package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The engine's queue must dequeue in exactly the order of the container/heap
// reference (heapqueue_test.go): not "equivalent" order, the *same* order,
// because committed experiment CSVs depend on it and must regenerate
// byte-identically. These tests replay schedules through both structures
// and require identical pop sequences.

// refQueue drives the reference eventHeap through container/heap.
type refQueue struct{ h eventHeap }

func (r *refQueue) push(ev event) { heap.Push(&r.h, ev) }
func (r *refQueue) pop() (event, bool) {
	if r.h.Len() == 0 {
		return event{}, false
	}
	return heap.Pop(&r.h).(event), true
}
func (r *refQueue) len() int { return r.h.Len() }

// comparePop pops one event from both queues and fails on any divergence.
func comparePop(t *testing.T, q *eventQueue, ref *refQueue) (event, bool) {
	t.Helper()
	if ref.len() != q.Len() {
		t.Fatalf("queue lengths diverged: heap %d, engine %d", ref.len(), q.Len())
	}
	want, ok := ref.pop()
	if !ok {
		return event{}, false
	}
	got := q.pop()
	if got.atS != want.atS || got.seq != want.seq {
		t.Fatalf("pop order diverged: heap (%.9f, %d), engine (%.9f, %d)",
			want.atS, want.seq, got.atS, got.seq)
	}
	return got, true
}

func TestCalendarQueueMatchesHeapBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		ref := &refQueue{}
		n := 1 + rng.Intn(400)
		var seq uint64
		for i := 0; i < n; i++ {
			at := rng.Float64() * 1000
			if rng.Intn(4) == 0 {
				at = float64(rng.Intn(10)) // force equal-time collisions
			}
			ev := event{atS: at, seq: seq}
			seq++
			q.push(ev)
			ref.push(ev)
		}
		for ref.len() > 0 {
			comparePop(t, &q, ref)
		}
		if q.Len() != 0 {
			t.Fatalf("engine queue retains %d events after drain", q.Len())
		}
	}
}

func TestCalendarQueueMatchesHeapInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		var q eventQueue
		ref := &refQueue{}
		var seq uint64
		now := 0.0
		for op := 0; op < 2000; op++ {
			if ref.len() == 0 || rng.Intn(3) != 0 {
				// Mid-run insertion at or after the engine clock, the
				// pattern After produces (retries, handover ticks).
				at := now + rng.Float64()*50
				if rng.Intn(5) == 0 {
					at = now // equal-time burst at the current instant
				}
				ev := event{atS: at, seq: seq}
				seq++
				q.push(ev)
				ref.push(ev)
				continue
			}
			if ev, ok := comparePop(t, &q, ref); ok {
				now = ev.atS
			}
		}
		for ref.len() > 0 {
			comparePop(t, &q, ref)
		}
	}
}

func TestCalendarQueueEqualTimeBurst(t *testing.T) {
	var q eventQueue
	ref := &refQueue{}
	// Thousands of events at one instant: order must be FIFO by seq.
	for seq := uint64(0); seq < 5000; seq++ {
		ev := event{atS: 42, seq: seq}
		q.push(ev)
		ref.push(ev)
	}
	for seq := uint64(0); seq < 5000; seq++ {
		got, ok := comparePop(t, &q, ref)
		if !ok || got.seq != seq {
			t.Fatalf("burst pop %d: got seq %d ok=%v", seq, got.seq, ok)
		}
	}
}

func TestCalendarQueueSparseFarFuture(t *testing.T) {
	var q eventQueue
	ref := &refQueue{}
	// Events many orders of magnitude apart, including an equal-time pair
	// far out.
	times := []float64{0.001, 5000, 1e6, 3e7, 3e7, 1e9}
	for i, at := range times {
		ev := event{atS: at, seq: uint64(i)}
		q.push(ev)
		ref.push(ev)
	}
	for ref.len() > 0 {
		comparePop(t, &q, ref)
	}
}

// TestEngineMatchesReferenceEngine runs a full self-scheduling program —
// events that reschedule themselves like handover ticks and retries — on
// the production engine and on a heap-driven replica, and requires the
// two delivery logs to be identical.
func TestEngineMatchesReferenceEngine(t *testing.T) {
	type logEntry struct {
		at float64
		id int
	}
	program := func(trial int64) (prodLog, refLog []logEntry) {
		// Production engine.
		{
			rng := rand.New(rand.NewSource(trial))
			e := NewEngine()
			var pl []logEntry
			var tick func(id int) func(*Engine)
			tick = func(id int) func(*Engine) {
				return func(e *Engine) {
					pl = append(pl, logEntry{e.Now(), id})
					if rng.Intn(3) > 0 {
						if err := e.After(rng.Float64()*30, tick(id*7+1)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for i := 0; i < 200; i++ {
				if err := e.Schedule(rng.Float64()*100, tick(i)); err != nil {
					t.Fatal(err)
				}
			}
			e.Run(400)
			prodLog = pl
		}
		// Heap-driven replica with an identical RNG stream.
		{
			rng := rand.New(rand.NewSource(trial))
			ref := &refQueue{}
			var seq uint64
			now := 0.0
			var rl []logEntry
			var tick func(id int) func()
			schedule := func(at float64, fn func()) {
				ref.push(event{atS: at, seq: seq, fn: func(*Engine) { fn() }})
				seq++
			}
			tick = func(id int) func() {
				return func() {
					rl = append(rl, logEntry{now, id})
					if rng.Intn(3) > 0 {
						schedule(now+rng.Float64()*30, tick(id*7+1))
					}
				}
			}
			for i := 0; i < 200; i++ {
				schedule(rng.Float64()*100, tick(i))
			}
			for ref.len() > 0 {
				ev, _ := ref.pop()
				if ev.atS > 400 {
					break
				}
				now = ev.atS
				ev.fn(nil)
			}
			refLog = rl
		}
		return prodLog, refLog
	}

	for trial := int64(0); trial < 10; trial++ {
		prod, refl := program(trial)
		if len(prod) != len(refl) {
			t.Fatalf("trial %d: delivered %d events, reference delivered %d", trial, len(prod), len(refl))
		}
		for i := range prod {
			if prod[i] != refl[i] {
				t.Fatalf("trial %d: delivery %d diverged: engine %+v, reference %+v",
					trial, i, prod[i], refl[i])
			}
		}
	}
}

// FuzzEventQueueOrder interprets fuzzer bytes as an op program over both
// queues: 3-byte (op, a, b) triples either push an event at a time derived
// from (a, b) — including duplicate times and times earlier than events
// already popped — or pop one event from each queue and compare. The seed
// corpus in testdata/fuzz covers bursts, far-future sparsity and
// out-of-order pushes.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 10, 5, 0, 10, 5, 3, 0, 0, 0, 1, 1, 3, 0, 0})
	f.Add([]byte{0, 255, 255, 0, 0, 1, 3, 0, 0, 0, 0, 0, 3, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q eventQueue
		ref := &refQueue{}
		var seq uint64
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			if op%4 == 3 {
				comparePop(t, &q, ref)
				continue
			}
			// op%4 selects a time regime: dense, clustered, or far-future.
			at := float64(a)*0.5 + float64(b)*0.002
			switch op % 4 {
			case 1:
				at = float64(a % 8) // heavy equal-time collisions
			case 2:
				at = float64(a) * 1e5 // sparse, far in the future
			}
			ev := event{atS: at, seq: seq}
			seq++
			q.push(ev)
			ref.push(ev)
		}
		for ref.len() > 0 {
			comparePop(t, &q, ref)
		}
		if q.Len() != 0 {
			t.Fatalf("engine queue retains %d events after drain", q.Len())
		}
	})
}
