package indepset

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"abw/internal/conflict"
	"abw/internal/geom"
	"abw/internal/radio"
	"abw/internal/topology"
)

// assertDeltaGrowth grows the universe one link at a time and checks, at
// every step and worker count, that EnumerateDelta from the previous
// step's base returns the byte-identical family and exploration count of
// a fresh full walk over the grown universe. The delta result then
// becomes the next step's base, exercising the chained form the memo
// cache uses.
func assertDeltaGrowth(t *testing.T, m conflict.Model, links []topology.LinkID, label string) {
	t.Helper()
	if len(links) < 2 {
		return
	}
	universe := dedupSorted(links)
	base := DeltaBase{Universe: universe[:1:1]}
	sets, truncated, explored, err := EnumeratePartialContext(context.Background(), m, base.Universe, Options{})
	if err != nil || truncated {
		t.Fatalf("%s: seed enumeration: truncated=%v err=%v", label, truncated, err)
	}
	base.Sets, base.Explored = sets, explored
	for step := 1; step < len(universe); step++ {
		link := universe[step]
		grown := universe[: step+1 : step+1]
		got, gotExplored, err := EnumerateDelta(context.Background(), m, base, link, Options{})
		if err != nil {
			t.Fatalf("%s: step %d: EnumerateDelta(+%d): %v", label, step, link, err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			want, truncated, wantExplored, err := EnumeratePartialContext(context.Background(), m, grown, Options{Workers: workers})
			if err != nil || truncated {
				t.Fatalf("%s: step %d workers %d: fresh walk: truncated=%v err=%v", label, step, workers, truncated, err)
			}
			if !reflect.DeepEqual(keys(got), keys(want)) {
				t.Fatalf("%s: step %d workers %d: delta family differs:\n got  %v\n want %v",
					label, step, workers, keys(got), keys(want))
			}
			if gotExplored != wantExplored {
				t.Fatalf("%s: step %d workers %d: delta explored %d, fresh %d",
					label, step, workers, gotExplored, wantExplored)
			}
		}
		base = DeltaBase{Universe: grown, Sets: got, Explored: gotExplored}
	}
}

func TestDeltaPhysicalRandomTopologies(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 10; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 350, H: 350}, 6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertDeltaGrowth(t, conflict.NewPhysical(net), cappedLinks(net, 8), "physical random")
	}
}

func TestDeltaProtocolRandomTopologies(t *testing.T) {
	prof := radio.NewProfile80211a()
	for seed := int64(1); seed <= 10; seed++ {
		net, err := topology.Random(prof, geom.Rect{W: 350, H: 350}, 6, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertDeltaGrowth(t, conflict.NewProtocol(net), cappedLinks(net, 8), "protocol random")
	}
}

func TestDeltaChains(t *testing.T) {
	prof := radio.NewProfile80211a()
	for _, spacing := range []float64{60, 100, 150} {
		net, path, err := topology.Chain(prof, 7, spacing)
		if err != nil {
			t.Fatalf("chain(7, %g): %v", spacing, err)
		}
		links := []topology.LinkID(path)
		assertDeltaGrowth(t, conflict.NewPhysical(net), links, "physical chain")
		assertDeltaGrowth(t, conflict.NewProtocol(net), links, "protocol chain")
	}
}

func TestDeltaRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rates := []radio.Rate{54, 36, 18}
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		tb := conflict.NewTable()
		var links []topology.LinkID
		for i := topology.LinkID(0); int(i) < n; i++ {
			tb.SetRates(i, rates[:1+rng.Intn(len(rates))]...)
			links = append(links, i)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for _, ri := range tb.Rates(topology.LinkID(i)) {
					for _, rj := range tb.Rates(topology.LinkID(j)) {
						if rng.Float64() < 0.45 {
							if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
		assertDeltaGrowth(t, tb, links, "random table")
	}
}

// TestDeltaLimitVerdict pins the accounting contract: with a limit
// between the base count and the grown count, the delta walk trips
// ErrLimit exactly like a fresh walk over the grown universe would; at
// the grown count, both succeed.
func TestDeltaLimitVerdict(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 7, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	m := conflict.NewPhysical(net)
	universe := dedupSorted(links)
	baseU := universe[:len(universe)-1]
	link := universe[len(universe)-1]

	_, _, baseExplored, err := EnumeratePartialContext(context.Background(), m, baseU, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, grownExplored, err := EnumeratePartialContext(context.Background(), m, universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if grownExplored <= baseExplored {
		t.Fatalf("degenerate topology: grown %d <= base %d", grownExplored, baseExplored)
	}

	for limit := baseExplored; limit < grownExplored; limit += (grownExplored - baseExplored + 3) / 4 {
		opts := Options{Limit: int(limit)}
		baseSets, truncated, baseCount, err := EnumeratePartialContext(context.Background(), m, baseU, opts)
		if err != nil || truncated {
			t.Fatalf("limit %d: base walk truncated=%v err=%v", limit, truncated, err)
		}
		base := DeltaBase{Universe: baseU, Sets: baseSets, Explored: baseCount}
		_, _, err = EnumerateDelta(context.Background(), m, base, link, opts)
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("limit %d (< grown %d): delta err = %v, want ErrLimit", limit, grownExplored, err)
		}
	}

	opts := Options{Limit: int(grownExplored)}
	baseSets, _, baseCount, err := EnumeratePartialContext(context.Background(), m, baseU, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := DeltaBase{Universe: baseU, Sets: baseSets, Explored: baseCount}
	got, gotExplored, err := EnumerateDelta(context.Background(), m, base, link, opts)
	if err != nil {
		t.Fatalf("limit == grown count %d: delta err = %v", grownExplored, err)
	}
	want, err := EnumerateContext(context.Background(), m, universe, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(got), keys(want)) || gotExplored != grownExplored {
		t.Fatalf("exact-limit delta diverged: explored %d vs %d", gotExplored, grownExplored)
	}
}

func TestDeltaUnsupportedModel(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	m := opaque{m: conflict.NewPhysical(net)}
	base := DeltaBase{Universe: links[:len(links)-1]}
	base.Sets, _, base.Explored, err = EnumeratePartialContext(context.Background(), m, base.Universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EnumerateDelta(context.Background(), m, base, links[len(links)-1], Options{}); !errors.Is(err, ErrDeltaUnsupported) {
		t.Fatalf("opaque model: err = %v, want ErrDeltaUnsupported", err)
	}
}

func TestDeltaUnsupportedWideRates(t *testing.T) {
	tb := conflict.NewTable()
	var wide []radio.Rate
	for r := 70; r >= 1; r-- {
		wide = append(wide, radio.Rate(r))
	}
	tb.SetRates(0, wide...)
	tb.SetRates(1, 54, 36)
	base := DeltaBase{Universe: []topology.LinkID{0}}
	var err error
	base.Sets, _, base.Explored, err = EnumeratePartialContext(context.Background(), tb, base.Universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EnumerateDelta(context.Background(), tb, base, 1, Options{}); !errors.Is(err, ErrDeltaUnsupported) {
		t.Fatalf(">64-rate universe: err = %v, want ErrDeltaUnsupported", err)
	}
}

func TestDeltaLinkAlreadyPresent(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	m := conflict.NewPhysical(net)
	base := DeltaBase{Universe: dedupSorted(links)}
	base.Sets, _, base.Explored, err = EnumeratePartialContext(context.Background(), m, base.Universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, explored, err := EnumerateDelta(context.Background(), m, base, links[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(got), keys(base.Sets)) || explored != base.Explored {
		t.Fatalf("re-adding a member changed the family or count")
	}
}

// TestDeltaCancellation pins the contract shared with Enumerate: a
// cancelled delta walk returns ErrCanceled and no family.
func TestDeltaCancellation(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 7, 80)
	if err != nil {
		t.Fatal(err)
	}
	links := []topology.LinkID(path)
	m := conflict.NewPhysical(net)
	universe := dedupSorted(links)
	base := DeltaBase{Universe: universe[:len(universe)-1]}
	base.Sets, _, base.Explored, err = EnumeratePartialContext(context.Background(), m, base.Universe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets, _, err := EnumerateDelta(ctx, m, base, universe[len(universe)-1], Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled delta: err = %v, want ErrCanceled", err)
	}
	if sets != nil {
		t.Fatalf("cancelled delta returned a family (%d sets)", len(sets))
	}
}
