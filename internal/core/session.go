package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"abw/internal/conflict"
	"abw/internal/estimate"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/obs"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Session amortizes repeated availability queries against one conflict
// model: the shape an admission loop produces, where the same
// (universe, candidate path) pair is solved again and again with only
// the background demands moving between steps. Three layers stack:
//
//  1. set families come from Options.Cache (or a fresh enumeration
//     when no cache is configured) — byte-identical either way;
//  2. the Eq. 6 LP for each (universe, path) pair is built once with a
//     row for EVERY universe link (vacuous 0 >= 0 rows are harmless,
//     and make the structure independent of which links carry demand),
//     so a background change is a pure right-hand-side update the
//     retained lp.WarmSolver repairs in a few dual-simplex pivots;
//  3. feasibility verdicts are memoized by exact demand signature, so
//     the repeated "is the current background still deliverable?"
//     check before each admission step costs a map lookup.
//
// Layers 2 and 3 share one byte-charged LRU (memo.LRU) bounded by the
// cache's MaxBytes — the same value as, but a separate budget from, the
// set-family cache (DESIGN.md Sec. 10). Each warm LP is charged its
// retained tableau, problem and set slices; each verdict its schedule
// and idle ratios. Eviction only forces a cold re-solve, so it never
// changes an answer beyond the warm-vs-cold tolerance above.
//
// Answers are exact: the warm-started optimum matches a cold
// AvailableBandwidthContext solve within pivot-tolerance arithmetic noise
// (the session property tests pin this), and set families and
// feasibility schedules are byte-identical to the cold path's.
//
// A Session is safe for concurrent use. Enumeration runs outside the
// session lock (so parallel workers and the cache's singleflight keep
// their concurrency); LP solves and the memo run under it, so an entry
// is never evicted while a solve runs on it.
type Session struct {
	m    conflict.Model
	opts Options

	mu      sync.Mutex
	entries *memo.LRU[sessionEntry] //guards: mu — warm LPs ("lp|" keys) and background verdicts ("bg|" keys)
}

// sessionEntry is one memoized answer: the warm LP of one (universe,
// path) pair, or the verdict on one background flow set.
type sessionEntry struct {
	lp *availState
	bg bgResult
}

// NewSession wraps the model and options. The options' Cache (which
// may be nil) also receives the session's warm/cold pivot statistics,
// and its MaxBytes bounds the session's own memo (memo.DefaultMaxBytes
// without a cache).
func NewSession(m conflict.Model, opts Options) *Session {
	budget := int64(memo.DefaultMaxBytes)
	if opts.Cache != nil {
		budget = opts.Cache.MaxBytes()
	}
	return &Session{m: m, opts: opts, entries: memo.NewLRU[sessionEntry](budget)}
}

// SessionStats is a snapshot of a session's memo, shaped for the abwd
// GET /v1/stats "session" block.
type SessionStats struct {
	// Entries counts retained warm LPs plus background verdicts.
	Entries int `json:"entries"`
	// Bytes is their charged retained size; it never exceeds MaxBytes.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the budget (the cache's configured MaxBytes).
	MaxBytes int64 `json:"maxBytes"`
	// Evictions counts entries the budget pushed out.
	Evictions int64 `json:"evictions"`
}

// Stats returns a snapshot of the session's memo; a nil session
// reports zeros.
func (s *Session) Stats() SessionStats {
	if s == nil {
		return SessionStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Entries:   s.entries.Len(),
		Bytes:     s.entries.Bytes(),
		MaxBytes:  s.entries.MaxBytes(),
		Evictions: s.entries.Evictions(),
	}
}

// Options returns the options the session was built with.
func (s *Session) Options() Options { return s.opts }

// Model returns the conflict model the session answers for.
func (s *Session) Model() conflict.Model { return s.m }

// availState is the retained LP for one (universe, path) pair.
type availState struct {
	w        *lp.WarmSolver
	lambdas  []lp.Var
	sets     []indepset.Set
	universe []topology.LinkID
	// linkRow0 is the row of universe[0]'s throughput constraint; the
	// link rows follow in universe order.
	linkRow0 int

	// coldPivots remembers the last from-scratch solve's pivot count,
	// the baseline "pivots saved" is measured against.
	coldPivots int
}

// bytes charges the state's retained size under key: the solver's
// problem and tableau, the lambda and universe slices, and the set
// slice with the couples it keeps alive.
func (st *availState) bytes(key string) int64 {
	const stateBytes = 96
	n := memo.EntryOverhead + stateBytes + int64(len(key)) + st.w.RetainedBytes()
	n += 8*int64(len(st.lambdas)) + 8*int64(len(st.universe))
	for i := range st.sets {
		n += memo.SetBytes(st.sets[i])
	}
	return n
}

// bgResult memoizes one background flow set: its FeasibleDemandsContext
// verdict and schedule and, once BackgroundContext has asked, the node
// idle ratios the schedule induces. Stored values are never mutated; a
// fill replaces the entry.
type bgResult struct {
	ok    bool
	sched schedule.Schedule
	idle  []float64 // nil until filled
}

// bytes charges the result's retained size under key: the slots with
// the couples their sets keep alive, and the idle ratios.
func (r bgResult) bytes(key string) int64 {
	const resultBytes, shareBytes = 64, 8
	n := memo.EntryOverhead + resultBytes + int64(len(key)) + 8*int64(len(r.idle))
	for i := range r.sched.Slots {
		n += shareBytes + memo.SetBytes(r.sched.Slots[i].Set)
	}
	return n
}

// AvailableBandwidthContext is the session-accelerated equivalent of
// the package-level AvailableBandwidthContext: same inputs, same answer,
// but repeated queries for the same universe and candidate path
// re-solve warm instead of from scratch. Enumeration and the (warm or
// cold) simplex poll ctx. A cancelled resolve discards the retained tableau, so the next query for the
// same pair simply re-solves cold — cancellation never corrupts the
// session's memoized state.
func (s *Session) AvailableBandwidthContext(ctx context.Context, background []Flow, newPath topology.Path) (*Result, error) {
	if len(newPath) == 0 {
		return nil, fmt.Errorf("core: empty new path")
	}
	universe, err := flowUniverse(newPath, background)
	if err != nil {
		return nil, err
	}

	// Enumeration (and its cache) run unlocked; the family is
	// deterministic, so a race between two builders of the same state
	// is settled by whoever inserts first.
	sets, err := s.opts.enumerate(ctx, s.m, universe)
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	demand := linkDemand(background)
	key := availKey(universe, newPath)

	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries.Get(key)
	st := e.lp
	if !ok {
		st, err = newAvailState(universe, newPath, sets)
		if err != nil {
			return nil, err
		}
		// A state larger than the whole budget is not retained; the
		// solve below still runs on it.
		s.entries.Add(key, sessionEntry{lp: st}, st.bytes(key))
	}
	return st.solve(ctx, s.opts.Cache, demand)
}

// newAvailState builds the Eq. 6 LP for the pair once. Unlike the cold
// path it adds a throughput row for every universe link — including
// links no set serves and no demand touches — so any later demand
// vector is reachable by RHS updates alone.
func newAvailState(universe []topology.LinkID, newPath topology.Path, sets []indepset.Set) (*availState, error) {
	prob := lp.NewProblem(lp.Maximize)
	prob.Reserve(len(sets)+1, len(universe)+1)
	lambdas := addLambdaVars(prob, sets, 0)
	f := prob.AddVar("f", 1)

	if err := addShareRow(prob, lambdas); err != nil {
		return nil, err
	}

	newCount := linkCount(newPath)
	rows := lambdaRows(universe, sets, lambdas)
	linkRow0 := prob.NumConstraints()
	for li, link := range universe {
		row := rows[li]
		if c := newCount[link]; c > 0 {
			row[f] = -float64(c)
		}
		if err := prob.AddOwnedConstraint(linkConsName(link), row, lp.GE, 0); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return &availState{
		w:        lp.NewWarmSolver(prob),
		lambdas:  lambdas,
		sets:     sets,
		universe: universe,
		linkRow0: linkRow0,
	}, nil
}

// solve pushes the demand vector into the RHS and resolves — warm when
// the retained tableau allows it, cold otherwise — reporting pivots
// into the cache counters.
func (st *availState) solve(ctx context.Context, cache *memo.Cache, demand map[topology.LinkID]float64) (*Result, error) {
	for li, link := range st.universe {
		if err := st.w.SetRHS(st.linkRow0+li, demand[link]); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sol, warm, err := st.w.ResolveContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: solving Eq.6 LP: %w", err)
	}
	if warm {
		cache.AddSolvePivots(true, sol.Pivots, st.coldPivots-sol.Pivots)
	} else {
		st.coldPivots = sol.Pivots
		cache.AddSolvePivots(false, sol.Pivots, 0)
	}

	res := &Result{Status: sol.Status, Sets: st.sets, Links: st.universe}
	if sol.Status != lp.Optimal {
		return res, nil
	}
	res.Bandwidth = sol.Objective
	// The sets are one enumerated family, so their keys are distinct,
	// and shareSchedule's filter is Normalized's: there is nothing to
	// merge or drop, and the slots are already the normalized schedule.
	res.Schedule = shareSchedule(sol, st.sets, st.lambdas)
	return res, nil
}

// FeasibleDemandsContext is the session-memoized equivalent of the
// package-level FeasibleDemandsContext: identical demand signatures
// over the same universe return the recorded verdict and schedule. A
// cancelled check memoizes nothing: ErrCanceled is never recorded as a
// verdict, so a later uncancelled repeat re-answers from scratch.
func (s *Session) FeasibleDemandsContext(ctx context.Context, flows []Flow) (bool, schedule.Schedule, error) {
	if len(flows) == 0 {
		return true, schedule.Schedule{}, nil
	}
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return false, schedule.Schedule{}, err
	}
	demand := linkDemand(flows)
	key := feasKey(universe, demand)

	tm := obs.SpanFrom(ctx).StartStage(obs.StageSession)
	defer tm.End()
	if r, ok := s.lookupBackground(key); ok {
		tm.SetOutcome("hit")
		return r.ok, copySchedule(r.sched), nil
	}
	tm.SetOutcome("miss")

	ok, sched, err := FeasibleDemandsContext(ctx, s.m, flows, s.opts)
	if err != nil {
		return ok, sched, err
	}
	s.storeBackground(key, bgResult{ok: ok, sched: sched})
	return ok, copySchedule(sched), nil
}

// IdleRatiosContext returns the per-node carrier-sensed idle ratios
// induced by the flows' minimal-airtime schedule
// (estimate.NodeIdleRatios over the FeasibleDemandsContext schedule),
// memoized by the same demand signature as the feasibility verdict.
// The routing layer asks this before every admission step with an
// unchanged background, so the repeat costs a map lookup. net must be
// the network the session's model was built on; cancelled computations
// memoize nothing.
func (s *Session) IdleRatiosContext(ctx context.Context, net *topology.Network, flows []Flow) ([]float64, error) {
	_, idle, err := s.background(ctx, net, flows)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), idle...), nil
}

// BackgroundContext returns the flows' minimal-airtime schedule (as
// FeasibleDemandsContext) together with the per-node idle ratios it
// induces (as IdleRatiosContext), from one memo lookup: a flow set seen
// before costs a map lookup and two copies, never a fresh solve or a
// fresh estimate.NodeIdleRatios. Flows that are not jointly schedulable
// are an error. net must be the network the session's model was built
// on; cancelled computations memoize nothing.
func (s *Session) BackgroundContext(ctx context.Context, net *topology.Network, flows []Flow) (schedule.Schedule, []float64, error) {
	sched, idle, err := s.background(ctx, net, flows)
	if err != nil {
		return schedule.Schedule{}, nil, err
	}
	return copySchedule(sched), append([]float64(nil), idle...), nil
}

// background answers BackgroundContext with the memo's own schedule
// and idle slice; the exported wrappers copy what they hand out.
func (s *Session) background(ctx context.Context, net *topology.Network, flows []Flow) (schedule.Schedule, []float64, error) {
	if len(flows) == 0 {
		idle := make([]float64, net.NumNodes())
		for i := range idle {
			idle[i] = 1
		}
		return schedule.Schedule{}, idle, nil
	}
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return schedule.Schedule{}, nil, err
	}
	key := feasKey(universe, linkDemand(flows))

	tm := obs.SpanFrom(ctx).StartStage(obs.StageSession)
	defer tm.End()
	r, hit := s.lookupBackground(key)
	if hit && r.idle != nil {
		tm.SetOutcome("hit")
		return r.sched, r.idle, nil
	}
	tm.SetOutcome("miss")

	if !hit {
		ok, sched, err := FeasibleDemandsContext(ctx, s.m, flows, s.opts)
		if err != nil {
			return schedule.Schedule{}, nil, err
		}
		r = bgResult{ok: ok, sched: sched}
		if !ok {
			s.storeBackground(key, r)
		}
	}
	if !r.ok {
		return schedule.Schedule{}, nil, fmt.Errorf("core: background flows are not jointly schedulable")
	}
	r.idle = estimate.NodeIdleRatios(net, r.sched)
	s.storeBackground(key, r)
	return r.sched, r.idle, nil
}

// lookupBackground returns the memoized verdict for a feasKey.
func (s *Session) lookupBackground(key string) (bgResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries.Get(key)
	return e.bg, ok
}

// storeBackground memoizes r under a feasKey, unless a concurrent fill
// already stored as much (the same verdict, with idle ratios when r
// has none): results for one key are identical, so the first complete
// one wins.
func (s *Session) storeBackground(key string, r bgResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries.Get(key); ok && (old.bg.idle != nil || r.idle == nil) {
		return
	}
	s.entries.Add(key, sessionEntry{bg: r}, r.bytes(key))
}

// copySchedule hands callers their own slot slice so a memoized
// schedule cannot be mutated behind the session's back.
func copySchedule(in schedule.Schedule) schedule.Schedule {
	if len(in.Slots) == 0 {
		return in
	}
	out := in
	out.Slots = make([]schedule.Slot, len(in.Slots))
	copy(out.Slots, in.Slots)
	return out
}

// availKey names one (universe, path) LP structure. The path enters as
// per-link traversal counts — the only way it shapes the LP — so
// permutations of the same multiset share a state.
func availKey(universe []topology.LinkID, newPath topology.Path) string {
	var b strings.Builder
	b.WriteString("lp|")
	for i, l := range universe {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(l)))
	}
	b.WriteByte('|')
	counts := linkCount(newPath)
	links := make([]topology.LinkID, 0, len(counts))
	for l := range counts {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for i, l := range links {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(l)))
		b.WriteByte('x')
		b.WriteString(strconv.Itoa(counts[l]))
	}
	return b.String()
}

// feasKey names one feasibility question: the universe plus the exact
// per-link demand vector (float bit patterns, so only truly identical
// demands share a verdict).
func feasKey(universe []topology.LinkID, demand map[topology.LinkID]float64) string {
	var b strings.Builder
	b.WriteString("bg|")
	for i, l := range universe {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(l)))
	}
	b.WriteByte('|')
	for i, l := range universe {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(math.Float64bits(demand[l]), 16))
	}
	return b.String()
}
