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

// enumerateWide is the multi-word twin of enumeratePairwise, used when
// some link declares more than 64 positive rates and a single uint64
// can no longer hold a rate mask. Every mask becomes W consecutive
// uint64 words (W = ceil(maxRates/64), uniform across links so rows
// slice out of flat arenas), and every mask operation of the narrow
// walk maps to its W-word counterpart: same DFS order, same pruning,
// same leaf maximality decisions, hence the same family byte for byte.
//
// With workers > 1 the assignment lattice splits exactly like the
// narrow walk's (choiceTasks); the clear table is shared read-only.
func enumerateWide(ctx context.Context, m conflict.PairwiseModel, universe []topology.LinkID, rates [][]radio.Rate, budget *budget, workers int) ([]Set, error) {
	n := len(universe)
	maxRates, total := 0, 0
	rateOff := make([]int, n)
	for j := range rates {
		rateOff[j] = total
		total += len(rates[j])
		if len(rates[j]) > maxRates {
			maxRates = len(rates[j])
		}
	}
	W := (maxRates + 63) / 64
	// clear[((i*total)+rateOff[j]+rj)*W : +W] is the mask of link i's
	// rates clearing the couple (universe[j], rates[j][rj]); the
	// diagonal is all-ones, as in the narrow table.
	e := &wideEnum{
		ctx:      ctx,
		universe: universe,
		rates:    rates,
		clear:    make([]uint64, n*total*W),
		rateOff:  rateOff,
		total:    total,
		n:        n,
		w:        W,
		budget:   budget,
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for rj := range rates[j] {
				masks := e.clearAt(i, j, rj)
				if i == j {
					for k := range masks {
						masks[k] = ^uint64(0)
					}
					continue
				}
				other := conflict.Couple{Link: universe[j], Rate: rates[j][rj]}
				for ri, r := range rates[i] {
					if m.RateClears(universe[i], r, other) {
						masks[ri>>6] |= 1 << uint(ri&63)
					}
				}
			}
		}
	}
	if workers <= 1 {
		w := newWideWorker(e)
		err := w.rec(0)
		w.release()
		return w.out, err
	}
	tasks := choiceTasks(n, workers, func(i int) int { return len(rates[i]) })
	if workers > len(tasks) {
		workers = len(tasks)
	}
	return parallelRun(workers, len(tasks), func() (func(int) error, func() []Set) {
		w := newWideWorker(e)
		return func(t int) error { return w.runTask(tasks[t]) },
			func() []Set { w.release(); return w.out }
	})
}

// wideEnum is the read-only state shared by every worker of one
// multi-word pairwise enumeration.
type wideEnum struct {
	//lint:ignore abw/ctxflow read-only per-enumeration worker state; lives strictly inside the enumeration call that received ctx
	ctx      context.Context
	universe []topology.LinkID
	rates    [][]radio.Rate
	clear    []uint64 // flat clear table, W words per (i, j, rj)
	rateOff  []int    // prefix sums of len(rates[j])
	total    int      // sum of len(rates[j])
	n, w     int
	budget   *budget
}

func (e *wideEnum) clearAt(i, j, rj int) []uint64 {
	off := (i*e.total + e.rateOff[j] + rj) * e.w
	return e.clear[off : off+e.w : off+e.w]
}

type wideMember struct {
	pos int
	ri  int
	ge  []uint64 // mask of declared rates at least the chosen one (geArena slot)
}

// wideWorker owns the mutable DFS state of one worker, all flat arenas
// of W-word rows: avail (n rows), its per-depth snapshots, the ge mask
// per stacked member, and one temporary row for leaf maximality.
type wideWorker struct {
	e        *wideEnum
	chk      *cancel.Checker // nil for uncancellable contexts (zero cost)
	scratch  *wideScratch
	avail    []uint64 // n*W: rates of each link clearing every member
	saved    []uint64 // n*n*W: avail snapshot per depth
	geArena  []uint64 // n*W: ge mask per depth
	tmp      []uint64 // W
	members  []wideMember
	isMember []bool
	out      []Set
}

// wideScratch holds one worker's reusable buffers, pooled like
// pairScratch; grow re-slices (or reallocates) to the current n and W.
type wideScratch struct {
	avail    []uint64
	saved    []uint64
	geArena  []uint64
	tmp      []uint64
	members  []wideMember
	isMember []bool
}

var wideScratchPool = sync.Pool{New: func() any { return new(wideScratch) }}

func (s *wideScratch) grow(n, w int) {
	need := func(b []uint64, sz int) []uint64 {
		if cap(b) < sz {
			return make([]uint64, sz)
		}
		return b[:sz]
	}
	s.avail = need(s.avail, n*w)
	s.saved = need(s.saved, n*n*w)
	s.geArena = need(s.geArena, n*w)
	s.tmp = need(s.tmp, w)
	if cap(s.members) < n {
		s.members = make([]wideMember, 0, n)
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

func newWideWorker(e *wideEnum) *wideWorker {
	s := wideScratchPool.Get().(*wideScratch)
	s.grow(e.n, e.w)
	w := &wideWorker{
		e:        e,
		chk:      cancel.NewChecker(e.ctx, 0),
		scratch:  s,
		avail:    s.avail,
		saved:    s.saved,
		geArena:  s.geArena,
		tmp:      s.tmp,
		members:  s.members,
		isMember: s.isMember,
	}
	for i := 0; i < e.n; i++ {
		row := w.availRow(i)
		if len(e.rates[i]) == 0 {
			for k := range row {
				row[k] = 0
			}
			continue
		}
		setGE(row, len(e.rates[i])-1)
	}
	return w
}

// release returns the worker's scratch to the pool. The worker must not
// be used afterwards; out stays valid (it never aliases the scratch).
func (w *wideWorker) release() {
	if w.scratch == nil {
		return
	}
	w.scratch.members = w.members[:0]
	wideScratchPool.Put(w.scratch)
	w.scratch = nil
	w.avail, w.saved, w.geArena, w.tmp = nil, nil, nil, nil
	w.members, w.isMember = nil, nil
}

func (w *wideWorker) availRow(i int) []uint64 {
	return w.avail[i*w.e.w : (i+1)*w.e.w : (i+1)*w.e.w]
}

// anyAnd2 reports whether a&b has any bit set.
func anyAnd2(a, b []uint64) bool {
	for k := range a {
		if a[k]&b[k] != 0 {
			return true
		}
	}
	return false
}

// anyAnd3 reports whether a&b&c has any bit set.
func anyAnd3(a, b, c []uint64) bool {
	for k := range a {
		if a[k]&b[k]&c[k] != 0 {
			return true
		}
	}
	return false
}

func andInto(dst, src []uint64) {
	for k := range dst {
		dst[k] &= src[k]
	}
}

// setGE writes the mask with bits 0..ri set (the W-word analogue of
// (1<<(ri+1))-1, the "at least this rate" mask for descending rates).
func setGE(dst []uint64, ri int) {
	word := ri >> 6
	for k := 0; k < word; k++ {
		dst[k] = ^uint64(0)
	}
	// 2<<63 wraps to 0 in uint64, so bit 63 still yields all-ones.
	dst[word] = (uint64(2) << uint(ri&63)) - 1
	for k := word + 1; k < len(dst); k++ {
		dst[k] = 0
	}
}

// firstBit returns the index of the lowest set bit, or a sentinel past
// any declared rate index when the mask is empty — mirroring the narrow
// walk's bits.TrailingZeros64 returning 64 on zero.
func firstBit(a []uint64) int {
	for k := range a {
		if a[k] != 0 {
			return k<<6 + bits.TrailingZeros64(a[k])
		}
	}
	return len(a) << 6
}

// push includes (universe[idx], rates[idx][ri]) when that keeps the
// partial set feasible, exactly like the narrow worker's push.
func (w *wideWorker) push(idx, ri int) bool {
	e := w.e
	d := len(w.members)
	ge := w.geArena[d*e.w : (d+1)*e.w : (d+1)*e.w]
	setGE(ge, ri)
	if !anyAnd2(w.availRow(idx), ge) {
		return false
	}
	for ii := range w.members {
		a := &w.members[ii]
		if !anyAnd3(w.availRow(a.pos), e.clearAt(a.pos, idx, ri), a.ge) {
			return false
		}
	}
	copy(w.saved[d*e.n*e.w:(d+1)*e.n*e.w], w.avail)
	for j := 0; j < e.n; j++ {
		andInto(w.availRow(j), e.clearAt(j, idx, ri))
	}
	w.members = append(w.members, wideMember{pos: idx, ri: ri, ge: ge})
	w.isMember[idx] = true
	return true
}

func (w *wideWorker) pop() {
	d := len(w.members) - 1
	w.isMember[w.members[d].pos] = false
	w.members = w.members[:d]
	copy(w.avail, w.saved[d*w.e.n*w.e.w:(d+1)*w.e.n*w.e.w])
}

// maximal reports whether the current full assignment is maximal; the
// two clauses are word-for-word the narrow worker's with W-word masks.
func (w *wideWorker) maximal() bool {
	e := w.e
	// Rate-maximality: some member could be raised to a higher declared
	// rate with every other member keeping its rate.
	for ii := range w.members {
		a := &w.members[ii]
		for rj := firstBit(w.availRow(a.pos)); rj < a.ri; rj++ {
			ok := true
			for jj := range w.members {
				if jj == ii {
					continue
				}
				b := &w.members[jj]
				// b's rates clearing every member except a, plus a at
				// its raised rate.
				copy(w.tmp, e.clearAt(b.pos, a.pos, rj))
				for kk := range w.members {
					if kk == ii || kk == jj {
						continue
					}
					c := &w.members[kk]
					andInto(w.tmp, e.clearAt(b.pos, c.pos, c.ri))
				}
				if !anyAnd2(w.tmp, b.ge) {
					ok = false
					break
				}
			}
			if ok {
				return false
			}
		}
	}
	// Link-maximality: some outside link could join at a declared rate
	// with every member keeping its rate.
	for j := 0; j < e.n; j++ {
		if w.isMember[j] {
			continue
		}
		for rj := firstBit(w.availRow(j)); rj < len(e.rates[j]); rj++ {
			ok := true
			for ii := range w.members {
				a := &w.members[ii]
				if !anyAnd3(w.availRow(a.pos), e.clearAt(a.pos, j, rj), a.ge) {
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
// records it when maximal.
func (w *wideWorker) visitLeaf() error {
	if len(w.members) == 0 {
		return nil
	}
	if !w.e.budget.take() {
		return ErrLimit
	}
	if w.maximal() {
		couples := make([]conflict.Couple, len(w.members))
		for d := range w.members {
			a := &w.members[d]
			couples[d] = conflict.Couple{Link: w.e.universe[a.pos], Rate: w.e.rates[a.pos][a.ri]}
		}
		w.out = append(w.out, Set{Couples: couples}) // idx order = link order
	}
	return nil
}

func (w *wideWorker) rec(idx int) error {
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

func (w *wideWorker) runTask(t choiceTask) error {
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
