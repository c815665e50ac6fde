package topo

import (
	"slices"
	"sync"
	"testing"
)

// checkIndex verifies an index against its snapshot: IDs are the sorted
// node set, and node i's CSR row lists Neighbors(IDs[i]) in order, both
// as target indices and as the shared edge values.
func checkIndex(t *testing.T, s *Snapshot, ix *Index) {
	t.Helper()
	if !slices.Equal(ix.IDs, s.Nodes()) {
		t.Fatalf("index IDs %v, snapshot nodes %v", ix.IDs, s.Nodes())
	}
	if len(ix.Off) != len(ix.IDs)+1 || int(ix.Off[len(ix.IDs)]) != len(ix.To) || len(ix.To) != s.EdgeCount() {
		t.Fatalf("CSR shape: %d offsets, %d targets, %d edges", len(ix.Off), len(ix.To), s.EdgeCount())
	}
	for i, id := range ix.IDs {
		nb := s.Neighbors(id)
		if !slices.Equal(ix.Adj[i], nb) || int(ix.Off[i+1]-ix.Off[i]) != len(nb) {
			t.Fatalf("%s: adjacency %v, want %v", id, ix.Adj[i], nb)
		}
		for k, e := range nb {
			if got := ix.IDs[ix.To[int(ix.Off[i])+k]]; got != e.To {
				t.Fatalf("%s edge %d: target %s, want %s", id, k, got, e.To)
			}
		}
		if j, ok := ix.Lookup(id); !ok || int(j) != i {
			t.Fatalf("Lookup(%s) = %d, %v; want %d", id, j, ok, i)
		}
	}
	if j, ok := ix.Lookup("no-such-node"); ok || j != -1 {
		t.Fatalf("Lookup of a missing node = %d, %v", j, ok)
	}
}

// TestIndexConcurrentFirstUse races eight goroutines on a snapshot's first
// Index call, as parallel workers sharing read-only snapshots do; run it
// under -race. All must get the one index, and it must describe the graph.
func TestIndexConcurrentFirstUse(t *testing.T) {
	s := lineSnapshot(t)
	const workers = 8
	got := make([]*Index, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w] = s.Index()
		}(w)
	}
	close(start)
	wg.Wait()
	for w, ix := range got {
		if ix == nil || ix != got[0] {
			t.Fatalf("worker %d got index %p, worker 0 got %p", w, ix, got[0])
		}
	}
	checkIndex(t, s, got[0])
}

// TestIndexOverlayBuildsItsOwn checks that a degraded view never inherits
// the index of the snapshot it was derived from, even when the parent's
// was built first, while an empty mask returns the same snapshot and so
// the same index.
func TestIndexOverlayBuildsItsOwn(t *testing.T) {
	s := lineSnapshot(t)
	parent := s.Index()
	o := s.Overlay(fakeMask{nodes: map[string]bool{"b": true}})
	ix := o.Index()
	if ix == parent {
		t.Fatal("overlay shares its parent's index")
	}
	checkIndex(t, o, ix)
	if _, ok := ix.Lookup("b"); ok {
		t.Fatal("failed node b is in the overlay's index")
	}
	checkIndex(t, s, parent)
	if s.Overlay(fakeMask{}).Index() != parent {
		t.Fatal("empty overlay should keep the snapshot's index")
	}
}
