// Package estimate implements the paper's distributed path
// available-bandwidth estimators (Sec. 4): metrics a node can compute
// from carrier-sensed channel idleness and local clique structure,
// without global scheduling knowledge. Five estimators are provided,
// matching Fig. 4 of the evaluation:
//
//   - clique constraint (Eq. 11) — interference along the path only,
//     background ignored;
//   - bottleneck node bandwidth (Eq. 10) — background only, path
//     interference ignored;
//   - min of the two (Eq. 12);
//   - conservative clique constraint (Eq. 13) — the paper's proposal and
//     best performer;
//   - expected clique transmission time (Eq. 15).
package estimate

import (
	"fmt"
	"math"

	"abw/internal/clique"
	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// PathState is what a distributed estimator knows about a candidate
// path: its links, the effective data rate of each hop, and each hop's
// carrier-sensed idle ratio (the lambda_i of Eq. 10, already reduced to
// the smaller of the two endpoints' idleness).
type PathState struct {
	Path  []topology.LinkID
	Rates []radio.Rate
	Idle  []float64
}

// Validate reports an error unless the state is internally consistent.
func (ps PathState) Validate() error {
	if len(ps.Path) == 0 {
		return fmt.Errorf("estimate: empty path")
	}
	if len(ps.Rates) != len(ps.Path) || len(ps.Idle) != len(ps.Path) {
		return fmt.Errorf("estimate: path has %d links but %d rates and %d idle ratios",
			len(ps.Path), len(ps.Rates), len(ps.Idle))
	}
	for i, r := range ps.Rates {
		if r <= 0 {
			return fmt.Errorf("estimate: hop %d has non-positive rate %v", i, r)
		}
	}
	for i, l := range ps.Idle {
		if l < 0 || l > 1+1e-9 || math.IsNaN(l) {
			return fmt.Errorf("estimate: hop %d has idle ratio %g outside [0,1]", i, l)
		}
	}
	return nil
}

// Metric identifies one of the paper's estimators.
type Metric int

// The five estimators of Fig. 4.
const (
	// MetricCliqueConstraint is Eq. 11.
	MetricCliqueConstraint Metric = iota + 1
	// MetricBottleneckNode is Eq. 10.
	MetricBottleneckNode
	// MetricMinOfBoth is Eq. 12.
	MetricMinOfBoth
	// MetricConservativeClique is Eq. 13.
	MetricConservativeClique
	// MetricExpectedCliqueTime is Eq. 15.
	MetricExpectedCliqueTime
)

// String implements fmt.Stringer with the paper's Fig. 4 labels.
func (m Metric) String() string {
	switch m {
	case MetricCliqueConstraint:
		return "clique constraint"
	case MetricBottleneckNode:
		return "bottleneck node bandwidth"
	case MetricMinOfBoth:
		return "min of clique and bottleneck"
	case MetricConservativeClique:
		return "conservative clique constraint"
	case MetricExpectedCliqueTime:
		return "expected clique transmission time"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// AllMetrics returns the five estimators in the paper's Fig. 4 order.
func AllMetrics() []Metric {
	return []Metric{
		MetricCliqueConstraint,
		MetricBottleneckNode,
		MetricMinOfBoth,
		MetricConservativeClique,
		MetricExpectedCliqueTime,
	}
}

// Estimate dispatches to the named estimator.
func Estimate(metric Metric, m conflict.Model, ps PathState) (float64, error) {
	switch metric {
	case MetricCliqueConstraint:
		return CliqueConstraint(m, ps)
	case MetricBottleneckNode:
		return BottleneckNode(ps)
	case MetricMinOfBoth:
		return MinCliqueBottleneck(m, ps)
	case MetricConservativeClique:
		return ConservativeClique(m, ps)
	case MetricExpectedCliqueTime:
		return ExpectedCliqueTime(m, ps)
	default:
		return 0, fmt.Errorf("estimate: unknown metric %d", int(metric))
	}
}

// BottleneckNode is Eq. 10: the path supports at most the tightest
// idle-time budget of any hop, f <= min_i lambda_i * r_i. It considers
// background load but ignores interference among the path's own hops.
func BottleneckNode(ps PathState) (float64, error) {
	if err := ps.Validate(); err != nil {
		return 0, err
	}
	return bottleneckNode(ps), nil
}

func bottleneckNode(ps PathState) float64 {
	f := math.Inf(1)
	for i := range ps.Path {
		if v := ps.Idle[i] * float64(ps.Rates[i]); v < f {
			f = v
		}
	}
	return f
}

// CliqueConstraint is Eq. 11: for every local interference clique C of
// the path, f <= 1 / sum_{i in C} 1/r_i. It accounts for intra-path
// interference but ignores background traffic entirely.
func CliqueConstraint(m conflict.Model, ps PathState) (float64, error) {
	cliques, err := localCliques(m, ps)
	if err != nil {
		return 0, err
	}
	return cliqueConstraint(cliques), nil
}

func cliqueConstraint(cliques []clique.Clique) float64 {
	f := math.Inf(1)
	for _, c := range cliques {
		if t := c.UnitTransmissionTime(); t > 0 {
			if v := 1 / t; v < f {
				f = v
			}
		}
	}
	return f
}

// MinCliqueBottleneck is Eq. 12: within every local clique, f is capped
// both by the clique transmission budget and by each member's idle-time
// budget; the tightest cap over all cliques wins.
func MinCliqueBottleneck(m conflict.Model, ps PathState) (float64, error) {
	cliques, err := localCliques(m, ps)
	if err != nil {
		return 0, err
	}
	return minCliqueBottleneck(cliques, indexOf(ps), ps), nil
}

func minCliqueBottleneck(cliques []clique.Clique, idx map[topology.LinkID]int, ps PathState) float64 {
	f := math.Inf(1)
	for _, c := range cliques {
		if t := c.UnitTransmissionTime(); t > 0 {
			if v := 1 / t; v < f {
				f = v
			}
		}
		for _, cp := range c.Couples {
			i := idx[cp.Link]
			if v := ps.Idle[i] * float64(ps.Rates[i]); v < f {
				f = v
			}
		}
	}
	return f
}

// ConservativeClique is Eq. 13, the paper's proposed estimator: assume
// the idle time of a hop must be shared by every clique member with less
// idle time. Ordering each clique's idle ratios ascending
// (lambda_1 <= ... <= lambda_|C|),
//
//	f <= min_i lambda_i / sum_{j<=i} 1/r_j.
func ConservativeClique(m conflict.Model, ps PathState) (float64, error) {
	cliques, err := localCliques(m, ps)
	if err != nil {
		return 0, err
	}
	return conservativeClique(cliques, indexOf(ps), ps), nil
}

func conservativeClique(cliques []clique.Clique, idx map[topology.LinkID]int, ps PathState) float64 {
	f := math.Inf(1)
	for _, c := range cliques {
		if v := conservativeCliqueValue(c, idx, ps); v < f {
			f = v
		}
	}
	return f
}

// ExpectedCliqueTime is Eq. 15: f <= 1 / max_C sum_{i in C}
// 1/(lambda_i r_i) — the clique transmission time computed with
// idleness-discounted link bandwidths. A zero idle ratio anywhere in a
// clique forces the estimate to zero.
func ExpectedCliqueTime(m conflict.Model, ps PathState) (float64, error) {
	cliques, err := localCliques(m, ps)
	if err != nil {
		return 0, err
	}
	return expectedCliqueTime(cliques, indexOf(ps), ps), nil
}

func expectedCliqueTime(cliques []clique.Clique, idx map[topology.LinkID]int, ps PathState) float64 {
	maxT := 0.0
	for _, c := range cliques {
		t := 0.0
		for _, cp := range c.Couples {
			i := idx[cp.Link]
			eff := ps.Idle[i] * float64(ps.Rates[i])
			if eff <= 0 {
				return 0
			}
			t += 1 / eff
		}
		if t > maxT {
			maxT = t
		}
	}
	if maxT == 0 {
		return math.Inf(1)
	}
	return 1 / maxT
}

// EstimateAll evaluates every metric on the same state. The path's
// local cliques and hop index are computed once and shared by the four
// clique-based estimators.
func EstimateAll(m conflict.Model, ps PathState) (map[Metric]float64, error) {
	cliques, err := localCliques(m, ps)
	if err != nil {
		return nil, err
	}
	idx := indexOf(ps)
	return map[Metric]float64{
		MetricCliqueConstraint:   cliqueConstraint(cliques),
		MetricBottleneckNode:     bottleneckNode(ps),
		MetricMinOfBoth:          minCliqueBottleneck(cliques, idx, ps),
		MetricConservativeClique: conservativeClique(cliques, idx, ps),
		MetricExpectedCliqueTime: expectedCliqueTime(cliques, idx, ps),
	}, nil
}

func localCliques(m conflict.Model, ps PathState) ([]clique.Clique, error) {
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	cliques, err := clique.LocalCliques(m, ps.Path, ps.Rates)
	if err != nil {
		return nil, fmt.Errorf("estimate: finding local cliques: %w", err)
	}
	return cliques, nil
}

// indexOf maps each path link to its hop index. Paths visiting a link
// twice keep the last index; estimator inputs are loopless in practice.
func indexOf(ps PathState) map[topology.LinkID]int {
	idx := make(map[topology.LinkID]int, len(ps.Path))
	for i, l := range ps.Path {
		idx[l] = i
	}
	return idx
}
