package indepset

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"strconv"
	"testing"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// Known-answer family pins. The walk-vs-walk tests (parallel, delta,
// reference) compare two enumerations with each other, so a change that
// moves every walk the same way passes them all. These tests compare
// against constants instead: a sha256 over each family's Set.Key
// sequence and its exploration count, recorded once from a trusted tree.
// A pin that fails means the enumerated family or its accounting moved;
// update a constant only with a reason that explains why the paper's
// family changed.

// writeFamily feeds one family's canonical keys, in order, and its
// exploration count into h.
func writeFamily(h hash.Hash, sets []Set, explored int64) {
	for _, s := range sets {
		h.Write([]byte(s.Key()))
		h.Write([]byte{'\n'})
	}
	h.Write([]byte("explored=" + strconv.FormatInt(explored, 10) + "\n"))
}

// familyDigest is the pin of one family: hex sha256 over its keys and
// exploration count.
func familyDigest(sets []Set, explored int64) string {
	h := sha256.New()
	writeFamily(h, sets, explored)
	return hex.EncodeToString(h.Sum(nil))
}

// PinFullWalk checks the full walk's digest at 1, 2, 4 and 8 workers.
// PinFullWalk and PinGrowth are exported for the external pin test
// package (pin_fig2_test.go).
func PinFullWalk(t *testing.T, label string, m conflict.Model, links []topology.LinkID, want string) {
	t.Helper()
	for _, workers := range []int{1, 2, 4, 8} {
		sets, truncated, explored, err := EnumeratePartialContext(context.Background(), m, links, Options{Workers: workers})
		if err != nil || truncated {
			t.Fatalf("%s workers %d: truncated=%v err=%v", label, workers, truncated, err)
		}
		if got := familyDigest(sets, explored); got != want {
			t.Errorf("%s workers %d: digest %s, want %s (%d sets, explored %d)",
				label, workers, got, want, len(sets), explored)
		}
	}
}

// PinGrowth grows the canonical universe of links one link at a time
// through EnumerateDelta, starting from a full walk over its first link,
// and checks one digest over every step's family and count.
func PinGrowth(t *testing.T, label string, m conflict.Model, links []topology.LinkID, want string) {
	t.Helper()
	universe := dedupSorted(links)
	base := DeltaBase{Universe: universe[:1:1]}
	var truncated bool
	var err error
	base.Sets, truncated, base.Explored, err = EnumeratePartialContext(context.Background(), m, base.Universe, Options{})
	if err != nil || truncated {
		t.Fatalf("%s: seed walk: truncated=%v err=%v", label, truncated, err)
	}
	h := sha256.New()
	writeFamily(h, base.Sets, base.Explored)
	for step := 1; step < len(universe); step++ {
		sets, explored, err := EnumerateDelta(context.Background(), m, base, universe[step], Options{})
		if err != nil {
			t.Fatalf("%s: step %d: %v", label, step, err)
		}
		writeFamily(h, sets, explored)
		base = DeltaBase{Universe: universe[: step+1 : step+1], Sets: sets, Explored: explored}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s: growth digest %s, want %s", label, got, want)
	}
}

// pinTable is a seeded 9-link conflict table with one to three rates per
// link and 40% couple-pair conflicts.
func pinTable(t *testing.T) (*conflict.Table, []topology.LinkID) {
	t.Helper()
	rng := rand.New(rand.NewSource(2009))
	rates := []radio.Rate{54, 36, 18}
	tb := conflict.NewTable()
	var links []topology.LinkID
	const n = 9
	for i := topology.LinkID(0); i < n; i++ {
		tb.SetRates(i, rates[:1+rng.Intn(len(rates))]...)
		links = append(links, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, ri := range tb.Rates(topology.LinkID(i)) {
				for _, rj := range tb.Rates(topology.LinkID(j)) {
					if rng.Float64() < 0.4 {
						if err := tb.AddConflict(topology.LinkID(i), ri, topology.LinkID(j), rj); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	return tb, links
}

func TestPinnedFamilies(t *testing.T) {
	prof := radio.NewProfile80211a()
	net, path, err := topology.Chain(prof, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	protocol := conflict.NewProtocol(net)
	tb, tbLinks := pinTable(t)
	wide, wideLinks := wideTable(t, rand.New(rand.NewSource(65)), 65, 3)

	PinFullWalk(t, "protocol chain", protocol, path, "f232a431cba4ae38c99bc1b547bf773fa18e3a7a5a10b98ef5f4cac0e73d9d27")
	PinFullWalk(t, "physical chain", conflict.NewPhysical(net), path, "e74ecdf6c3745448ee34179d8e8cbdb7e5148fd5d61a7839a7d1321f9943ef99")
	PinFullWalk(t, "table", tb, tbLinks, "d97e7c4bcec28389887f4e0cb448b89d6518409f871fdcc2c2990b124555f101")
	PinFullWalk(t, "wide table", wide, wideLinks, "d82b15343c7d21683cad14aeabd33fd9a78855fe00534ce7338291a9263266c8")

	PinGrowth(t, "protocol chain", protocol, path, "9bcdc433f85332524069175c39100bcb06fb6a6529791fa33875399d548c078c")
	PinGrowth(t, "physical chain", conflict.NewPhysical(net), path, "9b96e2364b3dbb93d159734978a4186a9a8d51abdffdfb2a02200817f5356bf0")
	PinGrowth(t, "table", tb, tbLinks, "03eb3f02c546a5fa5cfd414f182f2e0404c9d3c1ae22bb6356f1a9e477de0d20")
}
