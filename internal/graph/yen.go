package graph

import (
	"errors"
	"fmt"
	"sort"

	"abw/internal/topology"
)

// RoutedPath is a path together with its total weight.
type RoutedPath struct {
	Path   topology.Path
	Weight float64
}

// KShortestPaths returns up to k loopless minimum-weight paths from src
// to dst in non-decreasing weight order (Yen's algorithm). Fewer than k
// paths are returned when the graph does not contain k distinct loopless
// paths. It returns ErrNoPath when no path exists at all.
func KShortestPaths(g Network, src, dst topology.NodeID, w Weight, k int) ([]RoutedPath, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: k must be >= 1, got %d", k)
	}
	// Every search below reads the same weights: evaluate w once per
	// link instead of once per relaxation per spur search.
	adj := g.Adjacency()
	weights := make([]float64, adj.NumLinks())
	for id := range weights {
		l, err := g.Link(topology.LinkID(id))
		if err != nil {
			return nil, fmt.Errorf("graph: resolving link %d: %w", id, err)
		}
		weights[id] = w(l)
	}
	wid := func(id topology.LinkID) float64 { return weights[id] }
	best, bestW, err := dijkstra(adj, src, dst, wid, nil, nil)
	if err != nil {
		return nil, err
	}
	accepted := []RoutedPath{{Path: best, Weight: bestW}}
	var candidates []RoutedPath
	excludedLinks := make([]bool, adj.NumLinks())
	excludedNodes := make([]bool, adj.NumNodes())

	for len(accepted) < k {
		prevPath := accepted[len(accepted)-1].Path
		prevNodes, err := pathNodes(g, src, prevPath)
		if err != nil {
			return nil, err
		}
		// Spur from each node of the previous accepted path.
		for i := 0; i < len(prevPath); i++ {
			spurNode := prevNodes[i]
			rootPath := prevPath[:i]

			clear(excludedLinks)
			clear(excludedNodes)
			for _, ap := range accepted {
				if pathHasPrefix(ap.Path, rootPath) && len(ap.Path) > i {
					excludedLinks[ap.Path[i]] = true
				}
			}
			for _, cp := range candidates {
				if pathHasPrefix(cp.Path, rootPath) && len(cp.Path) > i {
					excludedLinks[cp.Path[i]] = true
				}
			}
			// Exclude root-path nodes (except the spur node) to keep
			// paths loopless.
			for _, nid := range prevNodes[:i] {
				excludedNodes[nid] = true
			}

			spurPath, spurW, err := dijkstra(adj, spurNode, dst, wid, excludedLinks, excludedNodes)
			if errors.Is(err, ErrNoPath) {
				continue
			}
			if err != nil {
				return nil, err
			}
			total := make(topology.Path, 0, i+len(spurPath))
			total = append(total, rootPath...)
			total = append(total, spurPath...)
			rootW, err := PathWeight(g, rootPath, w)
			if err != nil {
				return nil, err
			}
			cand := RoutedPath{Path: total, Weight: rootW + spurW}
			if !containsPath(accepted, cand.Path) && !containsPath(candidates, cand.Path) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].Weight < candidates[b].Weight })
		accepted = append(accepted, candidates[0])
		candidates = candidates[1:]
	}
	return accepted, nil
}

// pathNodes returns the node sequence of a path starting at src. An
// empty path yields just src.
func pathNodes(g Network, src topology.NodeID, path topology.Path) ([]topology.NodeID, error) {
	nodes := make([]topology.NodeID, 0, len(path)+1)
	nodes = append(nodes, src)
	for _, lid := range path {
		link, err := g.Link(lid)
		if err != nil {
			return nil, fmt.Errorf("graph: resolving link %d: %w", lid, err)
		}
		nodes = append(nodes, link.Rx)
	}
	return nodes, nil
}

func pathHasPrefix(p, prefix topology.Path) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func pathsEqual(a, b topology.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsPath(list []RoutedPath, p topology.Path) bool {
	for _, rp := range list {
		if pathsEqual(rp.Path, p) {
			return true
		}
	}
	return false
}
