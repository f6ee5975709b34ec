package indepset_test

import (
	"testing"

	"abw/internal/experiments"
	"abw/internal/indepset"
	"abw/internal/routing"
	"abw/internal/topology"
)

// TestPinnedFig2Families pins the physical model on the paper's Sec. 5.2
// deployment (experiments.Fig2Setup): the universe is the union of the
// hop-count routes of its first eight requests, the shape an admission
// query enumerates. It lives in the external test package because
// experiments imports indepset.
func TestPinnedFig2Families(t *testing.T) {
	net, m, reqs, err := experiments.Fig2Setup()
	if err != nil {
		t.Fatal(err)
	}
	var paths []topology.Path
	for _, req := range reqs[:8] {
		p, err := routing.FindPath(net, m, routing.MetricHopCount, nil, req.Src, req.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	universe := topology.LinkUnion(paths...)
	indepset.PinFullWalk(t, "fig2 physical", m, universe, "f7c8e8e22a151be4267e6175a8b6107c6f3897a661c102a1536aa2d37866a8c2")
	indepset.PinGrowth(t, "fig2 physical", m, universe, "263f6db987cbef82858fa9f26321d976325db3fb54587ee211cc527e5b7941f5")
}
