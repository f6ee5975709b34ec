package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"abw/internal/conflict"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// tinyBudget holds a handful of the small test networks' warm LPs, so
// every sequence below keeps the session's LRU evicting.
const tinyBudget = 48 << 10

// budgetPaths returns up to n distinct random paths of net.
func budgetPaths(t *testing.T, net *topology.Network, n int, seed int64) []topology.Path {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var paths []topology.Path
	for tries := 0; tries < 50*n && len(paths) < n; tries++ {
		p := randomPath(rng, net)
		if k := availKey(topology.LinkUnion(p), p); len(p) > 0 && !seen[k] {
			seen[k] = true
			paths = append(paths, p)
		}
	}
	if len(paths) < 4 {
		t.Skip("too few paths in topology")
	}
	return paths
}

// TestSessionBudgetBounded pins the bound: with a budget a few warm LPs
// wide, the session's charged bytes stay within it after every query
// (each of which may insert a warm LP or a verdict), the budget really
// evicts, and every answer still matches a cold solve.
func TestSessionBudgetBounded(t *testing.T) {
	net := sessionNetwork(t, 12, 41)
	m := conflict.NewPhysical(net)
	sess := NewSession(m, Options{Cache: memo.New(tinyBudget)})
	paths := budgetPaths(t, net, 16, 9)
	ctx := context.Background()

	check := func(step int) {
		t.Helper()
		st := sess.Stats()
		if st.MaxBytes != tinyBudget {
			t.Fatalf("step %d: session budget %d, want the cache's %d", step, st.MaxBytes, tinyBudget)
		}
		if st.Bytes > st.MaxBytes {
			t.Fatalf("step %d: session holds %d bytes over its %d budget (%+v)", step, st.Bytes, st.MaxBytes, st)
		}
	}
	for step := 0; step < 3*len(paths); step++ {
		cand := paths[step%len(paths)]
		bg := []Flow{{Path: paths[(step+1)%len(paths)], Demand: 0.25 * float64(1+step%3)}}
		got, err := sess.AvailableBandwidthContext(ctx, bg, cand)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(step)
		want, err := AvailableBandwidthContext(ctx, m, bg, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || math.Abs(got.Bandwidth-want.Bandwidth) > sessionTol {
			t.Fatalf("step %d: session %v %.12g, cold %v %.12g", step, got.Status, got.Bandwidth, want.Status, want.Bandwidth)
		}
		if _, _, err := sess.BackgroundContext(ctx, net, bg); err != nil {
			t.Fatalf("step %d: background: %v", step, err)
		}
		check(step)
	}
	if st := sess.Stats(); st.Evictions == 0 || st.Entries == 0 {
		t.Fatalf("budget never evicted or retained nothing: %+v", st)
	}
}

// TestSessionEvictedResolvesCold pins what eviction costs: an evicted
// warm LP comes back as a cold solve whose answer matches the
// package-level AvailableBandwidthContext within sessionTol, and an
// evicted background verdict refills bit-identically to its first fill
// (TestSessionBackgroundMemo's contract) by consulting the set-family
// cache again.
func TestSessionEvictedResolvesCold(t *testing.T) {
	net := sessionNetwork(t, 12, 41)
	m := conflict.NewPhysical(net)
	cache := memo.New(tinyBudget)
	sess := NewSession(m, Options{Cache: cache})
	paths := budgetPaths(t, net, 16, 9)
	ctx := context.Background()
	cand, bgFlows := paths[0], []Flow{{Path: paths[1], Demand: 0.5}}

	first, err := sess.AvailableBandwidthContext(ctx, bgFlows, cand)
	if err != nil {
		t.Fatal(err)
	}
	sched1, idle1, err := sess.BackgroundContext(ctx, net, bgFlows)
	if err != nil {
		t.Fatal(err)
	}
	ok1, feasSched1, err := sess.FeasibleDemandsContext(ctx, bgFlows)
	if err != nil || !ok1 {
		t.Fatalf("background infeasible: %v %v", ok1, err)
	}

	// Push both entries out: every other path's warm LP and verdict.
	evictions := sess.Stats().Evictions
	for _, p := range paths[2:] {
		if _, err := sess.AvailableBandwidthContext(ctx, []Flow{{Path: p, Demand: 0.25}}, p); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.BackgroundContext(ctx, net, []Flow{{Path: p, Demand: 0.25}}); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Stats().Evictions == evictions {
		t.Fatalf("nothing evicted: %+v", sess.Stats())
	}

	coldPivots, warm := cache.Stats().ColdPivots, cache.Stats().WarmResolves
	again, err := sess.AvailableBandwidthContext(ctx, bgFlows, cand)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.WarmResolves != warm || st.ColdPivots == coldPivots {
		t.Fatalf("evicted warm LP did not re-solve cold: %+v", st)
	}
	want, err := AvailableBandwidthContext(ctx, m, bgFlows, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Result{first, again} {
		if got.Status != want.Status || math.Abs(got.Bandwidth-want.Bandwidth) > sessionTol {
			t.Fatalf("session %v %.12g, cold %v %.12g", got.Status, got.Bandwidth, want.Status, want.Bandwidth)
		}
	}
	if want.Status != lp.Optimal {
		t.Fatalf("cold status %v", want.Status)
	}

	lookups := cache.Stats().Lookups
	sched2, idle2, err := sess.BackgroundContext(ctx, net, bgFlows)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Lookups == lookups {
		t.Fatal("evicted verdict answered without a refill")
	}
	_, feasSched2, err := sess.FeasibleDemandsContext(ctx, bgFlows)
	if err != nil {
		t.Fatal(err)
	}
	sameSchedule(t, "background refill", sched2.Slots, sched1.Slots)
	sameSchedule(t, "feasibility refill", feasSched2.Slots, feasSched1.Slots)
	if len(idle2) != len(idle1) {
		t.Fatalf("%d idle ratios after refill, %d before", len(idle2), len(idle1))
	}
	for i := range idle1 {
		if math.Float64bits(idle1[i]) != math.Float64bits(idle2[i]) {
			t.Fatalf("node %d idle %v after refill, %v before", i, idle2[i], idle1[i])
		}
	}
}

// sameSchedule fails unless got replays want bit for bit.
func sameSchedule(t *testing.T, what string, got, want []schedule.Slot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slots, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Set.Key() != want[i].Set.Key() || math.Float64bits(got[i].Share) != math.Float64bits(want[i].Share) {
			t.Fatalf("%s: slot %d differs", what, i)
		}
	}
}

// TestSessionConcurrentEvictions drives one tightly budgeted session
// from many goroutines mixing availability, feasibility and background
// queries, so evictions interleave with solves; run under -race in CI.
func TestSessionConcurrentEvictions(t *testing.T) {
	net := sessionNetwork(t, 12, 41)
	m := conflict.NewPhysical(net)
	sess := NewSession(m, Options{Cache: memo.New(tinyBudget)})
	paths := budgetPaths(t, net, 16, 9)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				cand := paths[(g+i)%len(paths)]
				bg := []Flow{{Path: paths[(g+2*i+1)%len(paths)], Demand: 0.25}}
				if _, err := sess.AvailableBandwidthContext(ctx, bg, cand); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, _, err := sess.FeasibleDemandsContext(ctx, bg); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, _, err := sess.BackgroundContext(ctx, net, bg); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if st := sess.Stats(); st.Bytes > st.MaxBytes {
					t.Errorf("goroutine %d: %d bytes over the %d budget", g, st.Bytes, st.MaxBytes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := sess.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions under concurrency: %+v", st)
	}
}
