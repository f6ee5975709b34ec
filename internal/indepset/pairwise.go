package indepset

import (
	"context"
	"math/bits"
	"sync"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// enumeratePairwise walks (link, rate) couple assignments in link order
// for models whose feasibility decomposes pairwise. It maintains, for
// every universe link, a bitmask of the declared rates that still clear
// every current member (bit k = k-th declared rate, descending), so
// adding a couple only checks the new couple against current members,
// and leaf maximality is a handful of mask intersections instead of
// from-scratch feasibility calls.
//
// With workers > 1 the assignment lattice is split at its first levels
// (choiceTasks); the clear-mask table is built once and shared
// read-only, each worker owning only its avail/member stacks.
func enumeratePairwise(ctx context.Context, m conflict.PairwiseModel, universe []topology.LinkID, budget *budget, workers int) ([]Set, error) {
	n := len(universe)
	if n == 0 {
		return nil, nil
	}
	rates, maxRates := positiveRates(m, universe)
	if maxRates > 64 {
		// Rate lists beyond one mask word walk with multi-word masks
		// (pairwise_wide.go) — same DFS order, same family.
		return enumerateWide(ctx, m, universe, rates, budget, workers)
	}
	e := newPairwiseEnum(ctx, m, universe, rates, budget)
	if workers <= 1 {
		w := newPairwiseWorker(e)
		err := w.rec(0)
		w.release()
		return w.out, err
	}
	tasks := choiceTasks(n, workers, func(i int) int { return len(rates[i]) })
	if workers > len(tasks) {
		workers = len(tasks)
	}
	return parallelRun(workers, len(tasks), func() (func(int) error, func() []Set) {
		w := newPairwiseWorker(e)
		return func(t int) error { return w.runTask(tasks[t]) },
			func() []Set { w.release(); return w.out }
	})
}

// positiveRates collects each link's positive declared rates, preserving
// the model's descending order (non-positive rates can never appear in a
// feasible couple), and returns the longest per-link list. The per-link
// slices share one backing slab — two allocations total, whatever n is.
func positiveRates(m conflict.PairwiseModel, universe []topology.LinkID) ([][]radio.Rate, int) {
	total := 0
	for _, l := range universe {
		total += len(m.Rates(l))
	}
	slab := make([]radio.Rate, 0, total)
	rates := make([][]radio.Rate, len(universe))
	maxRates := 0
	for i, l := range universe {
		start := len(slab)
		for _, r := range m.Rates(l) {
			if r > 0 {
				slab = append(slab, r)
			}
		}
		rates[i] = slab[start:len(slab):len(slab)]
		if len(rates[i]) > maxRates {
			maxRates = len(rates[i])
		}
	}
	return rates, maxRates
}

// buildClearTable precomputes clear[i][j][rj]: the mask of link i's
// rates that clear the couple (universe[j], rates[j][rj]). The diagonal
// is all-ones: a link never constrains itself (MaxRate ignores couples
// on the queried link). The mask rows share two backing slabs, so the
// whole n^2 table costs three allocations.
func buildClearTable(m conflict.PairwiseModel, universe []topology.LinkID, rates [][]radio.Rate) [][][]uint64 {
	n := len(universe)
	total := 0
	for j := range rates {
		total += len(rates[j])
	}
	flat := make([]uint64, n*total)
	mid := make([][]uint64, n*n)
	clear := make([][][]uint64, n)
	off := 0
	for i := range clear {
		clear[i] = mid[i*n : (i+1)*n]
		for j := range clear[i] {
			masks := flat[off : off+len(rates[j]) : off+len(rates[j])]
			off += len(rates[j])
			if i == j {
				for rj := range masks {
					masks[rj] = ^uint64(0)
				}
			} else {
				for rj := range masks {
					other := conflict.Couple{Link: universe[j], Rate: rates[j][rj]}
					var bm uint64
					for ri, r := range rates[i] {
						if m.RateClears(universe[i], r, other) {
							bm |= 1 << uint(ri)
						}
					}
					masks[rj] = bm
				}
			}
			clear[i][j] = masks
		}
	}
	return clear
}

// pairwiseEnum is the read-only state shared by every worker of one
// pairwise enumeration: the universe, its declared positive rates, and
// the precomputed clear-mask table.
type pairwiseEnum struct {
	//lint:ignore abw/ctxflow read-only per-enumeration worker state; lives strictly inside the enumeration call that received ctx
	ctx      context.Context
	universe []topology.LinkID
	rates    [][]radio.Rate
	clear    [][][]uint64
	n        int
	budget   *budget
}

// newPairwiseEnum builds the shared walk state over the canonical
// universe and its positive rates (positiveRates, at most 64 per link).
// The delta walk (delta.go) then lists it in walk order with reorder.
func newPairwiseEnum(ctx context.Context, m conflict.PairwiseModel, universe []topology.LinkID, rates [][]radio.Rate, budget *budget) *pairwiseEnum {
	return &pairwiseEnum{
		ctx:      ctx,
		universe: universe,
		rates:    rates,
		clear:    buildClearTable(m, universe, rates),
		n:        len(universe),
		budget:   budget,
	}
}

// reorder lists the walk state in the given position order: walk
// position k becomes old position order[k]. Only the universe, the rate
// lists and the clear table's two outer levels move; every mask row
// stays as built, since its bits index the rates of the link it belongs
// to and its entries the rates of the other link, both of which travel
// with their link.
func (e *pairwiseEnum) reorder(order []int) {
	universe := make([]topology.LinkID, e.n)
	rates := make([][]radio.Rate, e.n)
	mid := make([][]uint64, e.n*e.n)
	clear := make([][][]uint64, e.n)
	for k, p := range order {
		universe[k] = e.universe[p]
		rates[k] = e.rates[p]
		clear[k] = mid[k*e.n : (k+1)*e.n]
		for j, q := range order {
			clear[k][j] = e.clear[p][q]
		}
	}
	e.universe, e.rates, e.clear = universe, rates, clear
}

type pairMember struct {
	pos int
	ri  int
	ge  uint64 // mask of declared rates at least the chosen one
}

// pairwiseWorker owns the mutable DFS state of one worker: the
// per-link masks of rates still clearing every member, their per-depth
// snapshots, and the member stack. The mask and stack buffers come from
// a package-level pool (pairScratch) so repeated enumerations reuse
// them instead of reallocating the n + n*n words per worker.
type pairwiseWorker struct {
	e        *pairwiseEnum
	chk      *cancel.Checker // nil for uncancellable contexts (zero cost)
	scratch  *pairScratch
	avail    []uint64 // rates of each link clearing every member
	saved    [][]uint64
	members  []pairMember
	isMember []bool
	out      []Set
}

// pairScratch holds one worker's reusable buffers. Pooled globally:
// sizes are re-sliced (or grown) to the current universe on checkout,
// and the walk's push/pop discipline guarantees members is empty and
// isMember all-false at release, so only avail needs re-initializing.
type pairScratch struct {
	avail    []uint64
	sback    []uint64
	saved    [][]uint64
	members  []pairMember
	isMember []bool
}

var pairScratchPool = sync.Pool{New: func() any { return new(pairScratch) }}

func (s *pairScratch) grow(n int) {
	if cap(s.avail) < n {
		s.avail = make([]uint64, n)
	}
	s.avail = s.avail[:n]
	if cap(s.sback) < n*n {
		s.sback = make([]uint64, n*n)
	}
	s.sback = s.sback[:n*n]
	if cap(s.saved) < n {
		s.saved = make([][]uint64, n)
	}
	s.saved = s.saved[:n]
	for d := range s.saved {
		s.saved[d] = s.sback[d*n : (d+1)*n]
	}
	if cap(s.members) < n {
		s.members = make([]pairMember, 0, n)
	}
	s.members = s.members[:0]
	if cap(s.isMember) < n {
		s.isMember = make([]bool, n)
	}
	s.isMember = s.isMember[:n]
	for i := range s.isMember {
		s.isMember[i] = false
	}
}

func newPairwiseWorker(e *pairwiseEnum) *pairwiseWorker {
	n := e.n
	s := pairScratchPool.Get().(*pairScratch)
	s.grow(n)
	for i := range s.avail {
		// Safe at 64 declared rates: the shift wraps to 0 and the
		// decrement yields the intended all-ones mask.
		s.avail[i] = (uint64(1) << uint(len(e.rates[i]))) - 1
	}
	return &pairwiseWorker{
		e:        e,
		chk:      cancel.NewChecker(e.ctx, 0),
		scratch:  s,
		avail:    s.avail,
		saved:    s.saved,
		members:  s.members,
		isMember: s.isMember,
	}
}

// release returns the worker's scratch to the pool. The worker must not
// be used afterwards; out stays valid (it never aliases the scratch).
func (w *pairwiseWorker) release() {
	if w.scratch == nil {
		return
	}
	w.scratch.members = w.members[:0]
	pairScratchPool.Put(w.scratch)
	w.scratch = nil
	w.avail, w.saved, w.members, w.isMember = nil, nil, nil, nil
}

// push includes (universe[idx], rates[idx][ri]) when that keeps the
// partial set feasible: the new couple must be sustainable against the
// members (some clearing rate at or above it) and every member must
// retain a clearing rate at or above its own. It reports whether the
// couple was pushed; on false the worker state is unchanged.
func (w *pairwiseWorker) push(idx, ri int) bool {
	e := w.e
	ge := (uint64(1) << uint(ri+1)) - 1
	if w.avail[idx]&ge == 0 {
		return false
	}
	for ii := range w.members {
		a := &w.members[ii]
		if w.avail[a.pos]&e.clear[a.pos][idx][ri]&a.ge == 0 {
			return false
		}
	}
	d := len(w.members)
	copy(w.saved[d], w.avail)
	for j := 0; j < e.n; j++ {
		w.avail[j] &= e.clear[j][idx][ri]
	}
	w.members = append(w.members, pairMember{pos: idx, ri: ri, ge: ge})
	w.isMember[idx] = true
	return true
}

func (w *pairwiseWorker) pop() {
	d := len(w.members) - 1
	w.isMember[w.members[d].pos] = false
	w.members = w.members[:d]
	copy(w.avail, w.saved[d])
}

// maximal reports whether the current full assignment is maximal.
func (w *pairwiseWorker) maximal() bool {
	e := w.e
	// Rate-maximality: some member could be raised to a higher
	// declared rate with every other member keeping its rate.
	for ii := range w.members {
		a := &w.members[ii]
		// The member itself sustains a raise to index rj exactly when
		// some still-clearing rate is at least rates[a.pos][rj], i.e.
		// rj is at or below the best clearing rate.
		for rj := bits.TrailingZeros64(w.avail[a.pos]); rj < a.ri; rj++ {
			ok := true
			for jj := range w.members {
				if jj == ii {
					continue
				}
				b := &w.members[jj]
				// b's rates clearing every member except a, plus a at
				// its raised rate.
				mask := e.clear[b.pos][a.pos][rj]
				for kk := range w.members {
					if kk == ii || kk == jj {
						continue
					}
					c := &w.members[kk]
					mask &= e.clear[b.pos][c.pos][c.ri]
				}
				if mask&b.ge == 0 {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
	}
	// Link-maximality: some outside link could join at a declared
	// rate with every member keeping its rate.
	for j := 0; j < e.n; j++ {
		if w.isMember[j] || w.avail[j] == 0 {
			continue
		}
		for rj := bits.TrailingZeros64(w.avail[j]); rj < len(e.rates[j]); rj++ {
			ok := true
			for ii := range w.members {
				a := &w.members[ii]
				if w.avail[a.pos]&e.clear[a.pos][j][rj]&a.ge == 0 {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
	}
	return true
}

// visitLeaf charges the budget for the current full assignment and
// records it when maximal. The budget charge and the maximality check
// do not depend on member order; only the recorded couples must be in
// link order, so each one is insertion-sorted into place (one compare
// per couple on the full walk, whose members already ascend).
func (w *pairwiseWorker) visitLeaf() error {
	if len(w.members) == 0 {
		return nil
	}
	if !w.e.budget.take() {
		return ErrLimit
	}
	if w.maximal() {
		couples := make([]conflict.Couple, 0, len(w.members))
		for d := range w.members {
			a := &w.members[d]
			couples = append(couples, conflict.Couple{Link: w.e.universe[a.pos], Rate: w.e.rates[a.pos][a.ri]})
			for k := len(couples) - 1; k > 0 && couples[k-1].Link > couples[k].Link; k-- {
				couples[k-1], couples[k] = couples[k], couples[k-1]
			}
		}
		w.out = append(w.out, Set{Couples: couples})
	}
	return nil
}

func (w *pairwiseWorker) rec(idx int) error {
	if err := w.chk.Check(); err != nil {
		return err
	}
	if idx == w.e.n {
		return w.visitLeaf()
	}
	// Exclude universe[idx].
	if err := w.rec(idx + 1); err != nil {
		return err
	}
	// Include at each rate that keeps the partial set feasible.
	for ri := range w.e.rates[idx] {
		if !w.push(idx, ri) {
			continue
		}
		err := w.rec(idx + 1)
		w.pop()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *pairwiseWorker) runTask(t choiceTask) error {
	pushed := 0
	feasible := true
	for idx, c := range t.choices {
		if c < 0 {
			continue
		}
		if !w.push(idx, c) {
			feasible = false
			break
		}
		pushed++
	}
	var err error
	if feasible {
		err = w.rec(len(t.choices))
	}
	for ; pushed > 0; pushed-- {
		w.pop()
	}
	return err
}
