// Delta enumeration: compute the maximal-set family of a universe grown
// by one link from the cached family of the base universe, without
// re-walking the base lattice. The grown family decomposes exactly:
//
//	family(U ∪ {l}) = survivors(family(U)) ∪ {maximal sets containing l}
//
// A set without l is maximal over U ∪ {l} iff it was maximal over U and
// l cannot join it with every member keeping its rate: rate-maximality
// involves only the members (universe-independent), and link-maximality
// over the old links is untouched by growth — only the l-clause is new.
// Part (b) runs first: the ordinary full walk over the grown universe
// listed in walk order — l first, then the remaining links in
// descending-conflict order — with l pushed at the root, so the walk
// covers only the l-containing slice of the lattice and l's
// interference prunes subtrees at their shallowest node (feasibility,
// the budget and maximality are all branch-order independent; see the
// order helpers). Part (a) then needs no model replay at all — a base
// set is displaced exactly when some walked set equals it plus l,
// bytes for bytes (the strip rule proved at stripSurvivors) — so
// survival is one couple-hash lookup per cached set against the
// freshly walked family.
//
// Exploration accounting carries over too: both walk families charge
// their budget once per feasible leaf, and a leaf over U ∪ {l} either
// contains l (charged by part (b)) or is a leaf over U (charged by the
// base enumeration). Seeding the budget with the base count therefore
// reproduces the full walk's ErrLimit verdict exactly; see
// EnumeratePartialContext for where the seed comes from.
package indepset

import (
	"context"
	"errors"
	"math"
	"sort"

	"abw/internal/conflict"
	"abw/internal/topology"
)

// ErrDeltaUnsupported reports that the delta path cannot serve this
// model or universe shape (brute-force-walk models, or pairwise
// universes beyond 64 positive rates per link). Callers fall back to
// full enumeration; the fallback is always correct, the delta path is
// only ever an optimization.
var ErrDeltaUnsupported = errors.New("indepset: delta enumeration unsupported for this model or universe")

// DeltaBase is a complete enumeration result to warm-start from: the
// canonical (sorted, deduplicated) universe it was enumerated over, its
// full maximal-set family in key order, and the exact exploration count
// the walk charged (EnumeratePartialContext's explored). Truncated
// families must never be used as bases — their set list and count are
// both partial.
type DeltaBase struct {
	Universe []topology.LinkID
	Sets     []Set
	Explored int64
}

// EnumerateDelta returns the maximal-set family over base.Universe plus
// one more link, byte-identical to EnumerateContext over the grown
// universe under the same Options, along with the grown universe's
// exploration count (a valid DeltaBase.Explored for chaining). The model
// must be the one the base was enumerated under. Errors:
// ErrDeltaUnsupported (caller should fall back to EnumerateContext),
// ErrLimit (the grown universe would trip Options.Limit — a full walk
// would too), or ErrCanceled.
func EnumerateDelta(ctx context.Context, m conflict.Model, base DeltaBase, link topology.LinkID, opts Options) ([]Set, int64, error) {
	universe := dedupSorted(append(append([]topology.LinkID(nil), base.Universe...), link))
	if len(universe) == len(base.Universe) {
		// Link already present: the family is unchanged.
		return append([]Set(nil), base.Sets...), base.Explored, nil
	}
	lpos := searchLinks(universe, link)
	limit := opts.limit()
	switch mm := m.(type) {
	case *conflict.Physical:
		return deltaPhysical(ctx, mm, base, universe, lpos, limit)
	case conflict.PairwiseModel:
		return deltaPairwise(ctx, mm, base, universe, lpos, limit)
	default:
		return nil, 0, ErrDeltaUnsupported
	}
}

// searchLinks returns the position of l in the sorted universe, or -1.
func searchLinks(universe []topology.LinkID, l topology.LinkID) int {
	lo := sort.Search(len(universe), func(i int) bool { return universe[i] >= l })
	if lo < len(universe) && universe[lo] == l {
		return lo
	}
	return -1
}

func deltaPhysical(ctx context.Context, m *conflict.Physical, base DeltaBase, universe []topology.LinkID, lpos, limit int) ([]Set, int64, error) {
	l := universe[lpos]
	//lint:ignore abw/floateq Rate 0 is the exact no-declared-rate sentinel, never a computed float
	if m.MinPositiveRate(l) == 0 {
		// The new link can neither join an old set nor appear in a new
		// one; the family and the exploration count are unchanged.
		return append([]Set(nil), base.Sets...), base.Explored, nil
	}
	walk := physicalDeltaOrder(m, universe, lpos)
	e := newPhysicalEnum(ctx, m, walk, newSeededBudget(limit, base.Explored))
	w := newPhysicalWorker(e)
	w.push(0)
	err := w.rec(1)
	w.pop()
	if err != nil {
		return nil, 0, err
	}
	return mergeDelta(base.Sets, w.out, l), e.budget.count(), nil
}

// physicalDeltaOrder returns the grown universe in the delta walk's
// order: the grown link universe[lpos] first, then every other link,
// strongest conflictors of the grown link first (node sharers above
// all — they block it outright — then by mutual interference power,
// ties by position). Branch order is free to choose: feasibility is
// monotone and member-order-independent, so the walk visits the same
// feasible subsets in any order, and the final sort restores canonical
// emission. Fronting l's conflictors makes the
// subtrees that would die of l's interference die at the root instead
// of one level above the leaves.
func physicalDeltaOrder(m *conflict.Physical, universe []topology.LinkID, lpos int) []topology.LinkID {
	net := m.Network()
	l := universe[lpos]
	ll, lerr := net.Link(l)
	threat := make([]float64, len(universe))
	order := make([]int, 0, len(universe)-1)
	for p, id := range universe {
		if p == lpos {
			continue
		}
		threat[p] = m.InterferencePower(id, l) + m.InterferencePower(l, id)
		if lerr == nil {
			if pl, err := net.Link(id); err == nil && conflict.SharesNode(ll, pl) {
				threat[p] = math.Inf(1)
			}
		}
		order = append(order, p)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if threat[a] > threat[b] {
			return true
		}
		if threat[a] < threat[b] {
			return false
		}
		return a < b
	})
	walk := make([]topology.LinkID, 1, len(universe))
	walk[0] = l
	for _, p := range order {
		walk = append(walk, universe[p])
	}
	return walk
}

// mergeDelta assembles the grown family from the base family and the
// freshly walked sets that contain l: key-sort the walked sets, drop the
// base sets they displace, and merge the two key-sorted lists.
func mergeDelta(base, walked []Set, l topology.LinkID) []Set {
	sortByKey(walked)
	return mergeByKey(stripSurvivors(base, walked, l), walked)
}

// stripSurvivors returns the base sets that stay maximal once l joins
// the universe. A base set S is displaced exactly when l can join it
// with every member keeping its rate — and then S ∪ {l}, with those
// very rates, is itself maximal over the grown universe: no outside
// link that couldn't join S can join S ∪ {l} (l only adds
// constraints), no member can be raised (S was rate-maximal under
// fewer constraints), and l sits at its best joining rate. So the
// displaced sets are precisely the walked sets minus l, bytes for
// bytes — rates included, since a join that lowered any member's rate
// would not displace S but coexist with it. One couple-hash lookup per
// base set decides survival (hash hits are verified structurally, so a
// collision can never mislabel a set); no model replay, no key-string
// materialization.
func stripSurvivors(base, grown []Set, l topology.LinkID) []Set {
	// head/next chain grown-set indices per stripped-couples hash.
	head := make(map[uint64]int32, len(grown))
	next := make([]int32, len(grown))
	for gi, g := range grown {
		h := fnvOffset
		for _, c := range g.Couples {
			if c.Link != l {
				h = hashCouple(h, c)
			}
		}
		if prev, ok := head[h]; ok {
			next[gi] = prev
		} else {
			next[gi] = -1
		}
		head[h] = int32(gi)
	}
	out := make([]Set, 0, len(base))
	for _, s := range base {
		h := fnvOffset
		for _, c := range s.Couples {
			h = hashCouple(h, c)
		}
		displaced := false
		if gi, ok := head[h]; ok {
			for ; gi >= 0; gi = next[gi] {
				if strippedEqual(grown[gi].Couples, s.Couples, l) {
					displaced = true
					break
				}
			}
		}
		if !displaced {
			out = append(out, s)
		}
	}
	return out
}

// FNV-1a constants for hashing couple sequences.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashCouple folds one couple into an FNV-1a state: the link and the
// rate's exact bit pattern, so two couple lists hash equal only when
// links and rates match bit for bit (modulo 64-bit collisions, which
// strippedEqual screens out).
func hashCouple(h uint64, c conflict.Couple) uint64 {
	h ^= uint64(c.Link)
	h *= fnvPrime
	h ^= math.Float64bits(float64(c.Rate))
	h *= fnvPrime
	return h
}

// strippedEqual reports whether the grown set's couples minus l equal
// the base set's couples exactly — same links, same rates, in the same
// canonical ascending-link order both sides store.
func strippedEqual(g, s []conflict.Couple, l topology.LinkID) bool {
	if len(g) != len(s)+1 {
		return false
	}
	j := 0
	for _, c := range g {
		if c.Link == l {
			continue
		}
		if j == len(s) || c != s[j] {
			return false
		}
		j++
	}
	return j == len(s)
}

func deltaPairwise(ctx context.Context, m conflict.PairwiseModel, base DeltaBase, universe []topology.LinkID, lpos, limit int) ([]Set, int64, error) {
	rates, maxRates := positiveRates(m, universe)
	if maxRates > 64 {
		// The wide walk has no delta path; fall back to a full walk.
		return nil, 0, ErrDeltaUnsupported
	}
	if len(rates[lpos]) == 0 {
		// No positive declared rate: the link can neither join an old
		// set nor appear in a new one.
		return append([]Set(nil), base.Sets...), base.Explored, nil
	}
	e := newPairwiseEnum(ctx, m, universe, rates, newSeededBudget(limit, base.Explored))
	e.reorder(pairwiseDeltaOrder(e, lpos))
	w := newPairwiseWorker(e)
	defer w.release()
	for ri := range e.rates[0] {
		if !w.push(0, ri) {
			continue
		}
		err := w.rec(1)
		w.pop()
		if err != nil {
			return nil, 0, err
		}
	}
	return mergeDelta(base.Sets, w.out, universe[lpos]), e.budget.count(), nil
}

// pairwiseDeltaOrder returns the walk order of the pairwise delta walk
// over the canonical clear table's positions: lpos first, then every
// other position, strongest conflictors of the grown link first,
// measured from the clear table — the number of couple rates the grown
// link cannot clear plus the number of its own rates the position
// denies it — with ties by position. See physicalDeltaOrder for why
// branch order is free to choose.
func pairwiseDeltaOrder(e *pairwiseEnum, lpos int) []int {
	threat := make([]int, e.n)
	order := make([]int, 1, e.n)
	order[0] = lpos
	for p := 0; p < e.n; p++ {
		if p == lpos {
			continue
		}
		for _, mask := range e.clear[lpos][p] {
			if mask == 0 {
				threat[p]++
			}
		}
		for _, mask := range e.clear[p][lpos] {
			if mask == 0 {
				threat[p]++
			}
		}
		order = append(order, p)
	}
	rest := order[1:]
	sort.SliceStable(rest, func(i, j int) bool {
		a, b := rest[i], rest[j]
		if threat[a] != threat[b] {
			return threat[a] > threat[b]
		}
		return a < b
	})
	return order
}

// mergeByKey merges two key-sorted families into canonical key order.
// The survivors inherit the base family's order (a subsequence of a
// sorted list) with their keys already cached, so the delta result
// needs one linear merge instead of re-sorting — and re-keying — the
// whole family. Keys never collide across the two inputs: every new
// set contains the grown link, no survivor does.
func mergeByKey(survivors, grown []Set) []Set {
	if len(grown) == 0 {
		return survivors
	}
	if len(survivors) == 0 {
		return grown
	}
	out := make([]Set, 0, len(survivors)+len(grown))
	i, j := 0, 0
	for i < len(survivors) && j < len(grown) {
		if survivors[i].Key() < grown[j].Key() {
			out = append(out, survivors[i])
			i++
		} else {
			out = append(out, grown[j])
			j++
		}
	}
	out = append(out, survivors[i:]...)
	return append(out, grown[j:]...)
}
