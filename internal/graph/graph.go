// Package graph provides the routing-substrate algorithms used by the
// QoS routing layer: Dijkstra shortest paths under pluggable additive
// link weights, Yen's k-shortest loopless paths, and reachability
// queries. It operates on any network exposing the topology.Network
// adjacency surface.
package graph

import (
	"fmt"
	"math"
	"sync"

	"abw/internal/topology"
)

// Network is the adjacency surface the algorithms need; it is satisfied
// by *topology.Network.
type Network interface {
	NumNodes() int
	OutLinks(topology.NodeID) []topology.LinkID
	Link(topology.LinkID) (topology.Link, error)
	Adjacency() *topology.Adjacency
}

var _ Network = (*topology.Network)(nil)

// Weight computes the additive cost of traversing a link. Return
// math.Inf(1) to exclude the link from consideration.
type Weight func(topology.Link) float64

// HopWeight is the unit weight: shortest path = fewest hops.
func HopWeight(topology.Link) float64 { return 1 }

// ErrNoPath is returned when the destination is unreachable under the
// given weight.
var ErrNoPath = fmt.Errorf("graph: no path")

// IDWeight is Weight keyed by link ID, for callers that keep a link's
// cost in per-link tables rather than derive it from the Link value.
// Return math.Inf(1) to exclude the link.
type IDWeight func(topology.LinkID) float64

// ShortestPath returns a minimum-weight path from src to dst and its
// total weight. It returns ErrNoPath if dst is unreachable.
func ShortestPath(g Network, src, dst topology.NodeID, w Weight) (topology.Path, float64, error) {
	return dijkstra(g.Adjacency(), src, dst, byLink(g, w), nil, nil)
}

// ShortestPathByID is ShortestPath under a weight keyed by link ID.
func ShortestPathByID(g Network, src, dst topology.NodeID, w IDWeight) (topology.Path, float64, error) {
	return dijkstra(g.Adjacency(), src, dst, w, nil, nil)
}

// byLink adapts a Link-valued weight to the ID-keyed one the search
// runs on.
func byLink(g Network, w Weight) IDWeight {
	return func(id topology.LinkID) float64 {
		l, err := g.Link(id)
		if err != nil {
			return math.NaN() // unreachable: IDs come from g's own adjacency; NaN excludes the link
		}
		return w(l)
	}
}

// scratch is one search's per-node state, pooled across searches: the
// tentative distances, predecessor links, settled flags, and a binary
// min-heap of node IDs ordered by distance with each queued node's heap
// position (-1 when not queued).
type scratch struct {
	dist []float64
	prev []topology.LinkID
	done []bool
	pos  []int
	heap []topology.NodeID
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// getScratch returns pooled scratch reset for an n-node search.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.prev = make([]topology.LinkID, n)
		sc.done = make([]bool, n)
		sc.pos = make([]int, n)
		sc.heap = make([]topology.NodeID, 0, n)
	}
	sc.dist, sc.prev, sc.done, sc.pos, sc.heap = sc.dist[:n], sc.prev[:n], sc.done[:n], sc.pos[:n], sc.heap[:0]
	for i := 0; i < n; i++ {
		sc.dist[i] = math.Inf(1)
		sc.prev[i] = -1
		sc.done[i] = false
		sc.pos[i] = -1
	}
	return sc
}

// The heap operations below repeat container/heap's sift sequences
// step for step (Push = append + up, Pop = swap root with last + down,
// Fix = down else up), so nodes at equal distance leave the queue in
// exactly the order the container/heap version produced, and equal-cost
// routes keep breaking the same way.

func (sc *scratch) less(i, j int) bool { return sc.dist[sc.heap[i]] < sc.dist[sc.heap[j]] }

func (sc *scratch) swap(i, j int) {
	h := sc.heap
	h[i], h[j] = h[j], h[i]
	sc.pos[h[i]] = i
	sc.pos[h[j]] = j
}

func (sc *scratch) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !sc.less(j, i) {
			break
		}
		sc.swap(i, j)
		j = i
	}
}

func (sc *scratch) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && sc.less(j2, j1) {
			j = j2 // right child
		}
		if !sc.less(j, i) {
			break
		}
		sc.swap(i, j)
		i = j
	}
	return i > i0
}

func (sc *scratch) push(u topology.NodeID) {
	sc.pos[u] = len(sc.heap)
	sc.heap = append(sc.heap, u)
	sc.up(len(sc.heap) - 1)
}

func (sc *scratch) pop() topology.NodeID {
	n := len(sc.heap) - 1
	sc.swap(0, n)
	sc.down(0, n)
	u := sc.heap[n]
	sc.heap = sc.heap[:n]
	sc.pos[u] = -1
	return u
}

func (sc *scratch) fix(i int) {
	if !sc.down(i, len(sc.heap)) {
		sc.up(i)
	}
}

// dijkstra is the one shortest-path search: ShortestPath, the spur
// searches of Yen's algorithm and the routing layer all run it. It
// walks the network's CSR adjacency with optional excluded links and
// nodes, indexed by ID (nil excludes nothing; excluded nodes may still
// be used as src).
func dijkstra(adj *topology.Adjacency, src, dst topology.NodeID, w IDWeight, excludedLinks, excludedNodes []bool) (topology.Path, float64, error) {
	n := adj.NumNodes()
	if int(src) >= n || src < 0 || int(dst) >= n || dst < 0 {
		return nil, 0, fmt.Errorf("graph: node out of range (src=%d dst=%d n=%d)", src, dst, n)
	}
	if src == dst {
		return nil, 0, fmt.Errorf("graph: src equals dst (%d)", src)
	}

	sc := getScratch(n)
	defer scratchPool.Put(sc)
	dist, prev, done := sc.dist, sc.prev, sc.done
	dist[src] = 0
	sc.push(src)

	for len(sc.heap) > 0 {
		cur := sc.pop()
		done[cur] = true
		if cur == dst {
			break
		}
		for _, lid := range adj.Out(cur) {
			if excludedLinks != nil && excludedLinks[lid] {
				continue
			}
			rx := adj.Rx(lid)
			if (excludedNodes != nil && excludedNodes[rx]) || done[rx] {
				continue
			}
			lw := w(lid)
			if math.IsInf(lw, 1) || math.IsNaN(lw) {
				continue
			}
			if lw < 0 {
				return nil, 0, fmt.Errorf("graph: negative weight %g on link %d", lw, lid)
			}
			if nd := dist[cur] + lw; nd < dist[rx] {
				dist[rx] = nd
				prev[rx] = lid
				if i := sc.pos[rx]; i >= 0 {
					sc.fix(i)
				} else {
					sc.push(rx)
				}
			}
		}
	}

	if math.IsInf(dist[dst], 1) {
		return nil, 0, ErrNoPath
	}
	// Walk predecessors back to src, twice: once to size the path, once
	// to fill it from the end.
	hops := 0
	for at := dst; at != src; at = adj.Tx(prev[at]) {
		hops++
	}
	path := make(topology.Path, hops)
	for at, i := dst, hops-1; at != src; i-- {
		path[i] = prev[at]
		at = adj.Tx(prev[at])
	}
	return path, dist[dst], nil
}

// PathWeight sums w over the links of path.
func PathWeight(g Network, path topology.Path, w Weight) (float64, error) {
	total := 0.0
	for _, lid := range path {
		link, err := g.Link(lid)
		if err != nil {
			return 0, fmt.Errorf("graph: resolving link %d: %w", lid, err)
		}
		total += w(link)
	}
	return total, nil
}

// Reachable returns, for every node, whether it is reachable from src
// via links of finite weight.
func Reachable(g Network, src topology.NodeID, w Weight) []bool {
	n := g.NumNodes()
	seen := make([]bool, n)
	if src < 0 || int(src) >= n {
		return seen
	}
	seen[src] = true
	queue := []topology.NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, lid := range g.OutLinks(cur) {
			link, err := g.Link(lid)
			if err != nil {
				continue
			}
			if math.IsInf(w(link), 1) {
				continue
			}
			if !seen[link.Rx] {
				seen[link.Rx] = true
				queue = append(queue, link.Rx)
			}
		}
	}
	return seen
}

// Connected reports whether every node is reachable from node 0.
func Connected(g Network) bool {
	for _, ok := range Reachable(g, 0, HopWeight) {
		if !ok {
			return false
		}
	}
	return true
}
