package graph

import (
	"container/heap"
	"math/rand"
	"testing"

	"abw/internal/topology"
)

// refItem and refQueue are the container/heap priority queue the search
// used before its position-indexed heap, kept here as the reference the
// tie order is checked against.
type refItem struct {
	node topology.NodeID
	dist float64
	idx  int
}

type refQueue []*refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *refQueue) Push(x interface{}) {
	it := x.(*refItem)
	it.idx = len(*q)
	*q = append(*q, it)
}
func (q *refQueue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestHeapMatchesContainerHeap drives the scratch heap and the
// container/heap reference through the same random push / decrease-key
// / pop sequences, over distances drawn from a handful of values so
// ties are everywhere, and requires the same pop order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		sc := getScratch(n)
		ref := refQueue{}
		items := map[topology.NodeID]*refItem{}
		popped := map[topology.NodeID]bool{}
		for step := 0; step < 4*n; step++ {
			u := topology.NodeID(rng.Intn(n))
			if popped[u] {
				continue
			}
			if rng.Intn(3) == 0 && len(sc.heap) > 0 {
				got := sc.pop()
				want := heap.Pop(&ref).(*refItem)
				delete(items, want.node)
				if got != want.node {
					t.Fatalf("trial %d step %d: popped %d, container/heap popped %d", trial, step, got, want.node)
				}
				popped[got] = true
				continue
			}
			d := float64(rng.Intn(4))
			if it, ok := items[u]; ok {
				if d >= it.dist {
					continue // the search only ever lowers a queued distance
				}
				it.dist, sc.dist[u] = d, d
				heap.Fix(&ref, it.idx)
				sc.fix(sc.pos[u])
				continue
			}
			sc.dist[u] = d
			it := &refItem{node: u, dist: d}
			heap.Push(&ref, it)
			items[u] = it
			sc.push(u)
		}
		for len(sc.heap) > 0 {
			if got, want := sc.pop(), heap.Pop(&ref).(*refItem); got != want.node {
				t.Fatalf("trial %d drain: popped %d, container/heap popped %d", trial, got, want.node)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference still holds %d items", trial, ref.Len())
		}
		scratchPool.Put(sc)
	}
}
