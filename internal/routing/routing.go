// Package routing implements the paper's QoS routing layer (Sec. 4):
// distributed routing metrics over a multirate network with background
// traffic — hop count, end-to-end transmission delay (e2eTD), and
// average end-to-end delay (average-e2eD, Eq. 14) — plus the
// estimator-guided path selection the paper proposes, and the
// sequential flow-admission experiment of Sec. 5.2 (Figs. 2 and 3).
package routing

import (
	"fmt"
	"math"

	"abw/internal/conflict"
	"abw/internal/estimate"
	"abw/internal/graph"
	"abw/internal/topology"
)

// Metric is a QoS routing metric.
type Metric int

// The routing metrics compared in Fig. 3.
const (
	// MetricHopCount prefers the fewest hops.
	MetricHopCount Metric = iota + 1
	// MetricE2ETD minimizes the end-to-end transmission delay
	// sum_i 1/r_i (from the authors' earlier work [1]).
	MetricE2ETD
	// MetricAvgE2ED minimizes the average end-to-end delay
	// sum_i 1/(lambda_i r_i) of Eq. 14 — transmission delay inflated by
	// the background-busy fraction of each hop.
	MetricAvgE2ED
)

// String implements fmt.Stringer with the paper's labels.
func (m Metric) String() string {
	switch m {
	case MetricHopCount:
		return "hop count"
	case MetricE2ETD:
		return "e2eTD"
	case MetricAvgE2ED:
		return "average-e2eD"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// AllMetrics returns the three routing metrics in the paper's order.
func AllMetrics() []Metric {
	return []Metric{MetricHopCount, MetricE2ETD, MetricAvgE2ED}
}

// Weight builds the additive link weight for a metric. nodeIdle is the
// per-node carrier-sensed idle ratio vector; it is required by
// MetricAvgE2ED and ignored by the others. Links whose endpoints have no
// idle time are excluded (infinite weight) under MetricAvgE2ED.
func Weight(m conflict.Model, metric Metric, nodeIdle []float64) (graph.Weight, error) {
	if err := checkMetric(metric, nodeIdle); err != nil {
		return nil, err
	}
	return func(l topology.Link) float64 {
		return linkWeight(m, metric, nodeIdle, l.ID, l.Tx, l.Rx)
	}, nil
}

// checkMetric reports an error unless linkWeight can evaluate metric
// with the given idle ratios.
func checkMetric(metric Metric, nodeIdle []float64) error {
	switch metric {
	case MetricHopCount, MetricE2ETD:
		return nil
	case MetricAvgE2ED:
		if nodeIdle == nil {
			return fmt.Errorf("routing: %v requires node idleness", metric)
		}
		return nil
	default:
		return fmt.Errorf("routing: unknown metric %d", int(metric))
	}
}

// linkWeight is the one formula behind Weight, FindPath and LinkWeights:
// the additive cost of link id (tx -> rx) under a metric checkMetric
// accepted.
func linkWeight(m conflict.Model, metric Metric, nodeIdle []float64, id topology.LinkID, tx, rx topology.NodeID) float64 {
	if metric == MetricHopCount {
		return 1
	}
	r := conflict.AloneMaxRate(m, id)
	if r <= 0 {
		return math.Inf(1)
	}
	if metric == MetricE2ETD {
		return 1 / float64(r)
	}
	if int(tx) >= len(nodeIdle) || int(rx) >= len(nodeIdle) {
		return math.Inf(1)
	}
	lambda := math.Min(nodeIdle[tx], nodeIdle[rx])
	if lambda <= 0 {
		return math.Inf(1)
	}
	return 1 / (lambda * float64(r))
}

// LinkWeights evaluates a metric's weight on every link of net, indexed
// by link ID: the vector FindPathWeights routes over. A caller routing
// many pairs against one set of idle ratios computes it once.
func LinkWeights(net *topology.Network, m conflict.Model, metric Metric, nodeIdle []float64) ([]float64, error) {
	if err := checkMetric(metric, nodeIdle); err != nil {
		return nil, err
	}
	adj := net.Adjacency()
	w := make([]float64, adj.NumLinks())
	for id := range w {
		l := topology.LinkID(id)
		w[id] = linkWeight(m, metric, nodeIdle, l, adj.Tx(l), adj.Rx(l))
	}
	return w, nil
}

// FindPath routes src to dst under the given metric, evaluating each
// link's weight as the search reaches it.
func FindPath(net *topology.Network, m conflict.Model, metric Metric, nodeIdle []float64, src, dst topology.NodeID) (topology.Path, error) {
	if err := checkMetric(metric, nodeIdle); err != nil {
		return nil, err
	}
	adj := net.Adjacency()
	return route(net, metric, src, dst, func(l topology.LinkID) float64 {
		return linkWeight(m, metric, nodeIdle, l, adj.Tx(l), adj.Rx(l))
	})
}

// FindPathWeights is FindPath over weights LinkWeights computed for the
// same metric: the same route, without re-evaluating the metric.
func FindPathWeights(net *topology.Network, metric Metric, weights []float64, src, dst topology.NodeID) (topology.Path, error) {
	if len(weights) != net.NumLinks() {
		return nil, fmt.Errorf("routing: %d link weights for %d links", len(weights), net.NumLinks())
	}
	return route(net, metric, src, dst, func(l topology.LinkID) float64 { return weights[l] })
}

func route(net *topology.Network, metric Metric, src, dst topology.NodeID, w graph.IDWeight) (topology.Path, error) {
	path, _, err := graph.ShortestPathByID(net, src, dst, w)
	if err != nil {
		return nil, fmt.Errorf("routing: %v from %d to %d: %w", metric, src, dst, err)
	}
	return path, nil
}

// FindPathByLCTT routes by local clique transmission time — the LCTT
// metric the paper (after its reference [1]) names alongside e2eTD as a
// good capacity-seeking metric: among up to k loopless e2eTD-shortest
// candidates, pick the path whose bottleneck local clique has the
// smallest transmission time, i.e. the largest clique-constraint
// bandwidth (Eq. 11).
func FindPathByLCTT(net *topology.Network, m conflict.Model, src, dst topology.NodeID, k int) (topology.Path, float64, error) {
	idle := make([]float64, net.NumNodes())
	for i := range idle {
		idle[i] = 1 // LCTT ignores background by definition
	}
	return FindPathByEstimator(net, m, idle, src, dst, k, func(ps estimate.PathState) (float64, error) {
		return estimate.CliqueConstraint(m, ps)
	})
}

// PathEvaluator scores a candidate path; higher is better. The paper
// proposes using the Sec. 4 bandwidth estimators this way.
type PathEvaluator func(estimate.PathState) (float64, error)

// FindPathByEstimator implements the paper's estimator-guided routing:
// enumerate up to k loopless shortest candidates by e2eTD, build each
// candidate's distributed state from idleness, and keep the path whose
// estimated available bandwidth is largest.
func FindPathByEstimator(
	net *topology.Network,
	m conflict.Model,
	nodeIdle []float64,
	src, dst topology.NodeID,
	k int,
	eval PathEvaluator,
) (topology.Path, float64, error) {
	if eval == nil {
		return nil, 0, fmt.Errorf("routing: nil evaluator")
	}
	w, err := Weight(m, MetricE2ETD, nil)
	if err != nil {
		return nil, 0, err
	}
	cands, err := graph.KShortestPaths(net, src, dst, w, k)
	if err != nil {
		return nil, 0, fmt.Errorf("routing: candidates from %d to %d: %w", src, dst, err)
	}
	bestScore := math.Inf(-1)
	var best topology.Path
	for _, cand := range cands {
		ps, err := estimate.PathStateFromIdle(net, m, nodeIdle, cand.Path)
		if err != nil {
			return nil, 0, err
		}
		score, err := eval(ps)
		if err != nil {
			return nil, 0, fmt.Errorf("routing: evaluating candidate: %w", err)
		}
		if score > bestScore {
			bestScore = score
			best = cand.Path
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("routing: no scorable candidate from %d to %d", src, dst)
	}
	return best, bestScore, nil
}
