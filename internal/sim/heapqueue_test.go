package sim

// eventHeap is the reference event queue, driven through container/heap:
// the engine's hand-rolled heap (engine.go) must dequeue in exactly this
// heap's (atS, seq) order, and the property tests in queue_test.go replay
// random schedules through both structures and require identical
// sequences.

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].atS != h[j].atS { // exact: ties are broken by seq
		return h[i].atS < h[j].atS
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
