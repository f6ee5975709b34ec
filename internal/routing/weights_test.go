package routing_test

import (
	"errors"
	"slices"
	"testing"

	"abw/internal/graph"
	"abw/internal/routing"
	"abw/internal/topology"
)

// TestFindPathWeightsMatchesFindPath: routing over a LinkWeights vector
// gives FindPath's answer — path and error — for every ordered pair
// and metric on the Sec. 5.2 background.
func TestFindPathWeightsMatchesFindPath(t *testing.T) {
	net, m, _, idle := pinBackground(t)
	for _, metric := range routing.AllMetrics() {
		w, err := routing.LinkWeights(net, m, metric, idle)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < net.NumNodes(); s++ {
			for d := 0; d < net.NumNodes(); d++ {
				src, dst := topology.NodeID(s), topology.NodeID(d)
				want, werr := routing.FindPath(net, m, metric, idle, src, dst)
				got, gerr := routing.FindPathWeights(net, metric, w, src, dst)
				if !slices.Equal(got, want) || (werr == nil) != (gerr == nil) ||
					(werr != nil && werr.Error() != gerr.Error()) {
					t.Fatalf("%v %d->%d: weights route %v (%v), FindPath %v (%v)", metric, s, d, got, gerr, want, werr)
				}
			}
		}
	}
	if _, err := routing.LinkWeights(net, m, routing.MetricAvgE2ED, nil); err == nil {
		t.Error("LinkWeights accepted average-e2eD without idle ratios")
	}
	if _, err := routing.FindPathWeights(net, routing.MetricHopCount, []float64{1}, 0, 1); err == nil {
		t.Error("FindPathWeights accepted a weight vector of the wrong length")
	}
	if _, err := routing.FindPathWeights(net, routing.MetricHopCount, make([]float64, net.NumLinks()), 0, 0); errors.Is(err, graph.ErrNoPath) || err == nil {
		t.Errorf("FindPathWeights src == dst: %v, want a validation error", err)
	}
}

// BenchmarkFindPath routes the sample pairs on the Sec. 5.2 background
// under average-e2eD: per-call evaluates the metric as the search
// relaxes each link (FindPath), view-weights routes over a LinkWeights
// vector computed once (the daemon's default route).
func BenchmarkFindPath(b *testing.B) {
	net, m, _, idle := pinBackground(b)
	pairs := pinPairs(net.NumNodes())
	w, err := routing.LinkWeights(net, m, routing.MetricAvgE2ED, idle)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("per-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := routing.FindPath(net, m, routing.MetricAvgE2ED, idle, p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("view-weights", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := routing.FindPathWeights(net, routing.MetricAvgE2ED, w, p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
