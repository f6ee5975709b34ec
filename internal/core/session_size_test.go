package core_test

import (
	"context"
	"runtime"
	"testing"

	"abw/internal/core"
	"abw/internal/experiments"
	"abw/internal/routing"
	"abw/internal/topology"
)

// TestSessionChargeMatchesHeap is the size-charge sanity check behind
// the session budget: over ~50 warm LPs and background verdicts on the
// Fig. 2 random topology, the bytes the session charges are within 2x
// of the heap the session really retains (the runtime.MemStats
// HeapAlloc delta across the queries, after a GC). No cache is
// configured, so the session's set slices are the only owners of their
// families and nothing else grows.
func TestSessionChargeMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	net, m, _, err := experiments.Fig2Setup()
	if err != nil {
		t.Fatal(err)
	}
	var paths []topology.Path
	for src := 0; src < net.NumNodes() && len(paths) < 26; src++ {
		for dst := src + 1; dst < net.NumNodes() && len(paths) < 26; dst += 3 {
			p, err := routing.FindPath(net, m, routing.MetricHopCount, nil, topology.NodeID(src), topology.NodeID(dst))
			if err == nil && len(p) >= 2 && len(p) <= 6 {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) < 26 {
		t.Fatalf("only %d paths on the Fig. 2 topology", len(paths))
	}
	ctx := context.Background()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sess := core.NewSession(m, core.Options{})
	for i := 0; i+1 < len(paths); i++ {
		bg := []core.Flow{{Path: paths[i+1], Demand: 0.1}, {Path: paths[(i+7)%len(paths)], Demand: 0.1}}
		if _, err := sess.AvailableBandwidthContext(ctx, bg, paths[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.BackgroundContext(ctx, net, bg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := sess.Stats()
	runtime.KeepAlive(sess)

	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if st.Entries < 40 || st.Evictions != 0 {
		t.Fatalf("want ~50 retained entries and no evictions: %+v", st)
	}
	ratio := float64(st.Bytes) / float64(retained)
	t.Logf("%d entries charged %d bytes; heap grew %d bytes (charge/heap %.2f)", st.Entries, st.Bytes, retained, ratio)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("charged %d bytes for %d retained (ratio %.2f, want within 2x)", st.Bytes, retained, ratio)
	}
}
