package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"abw/internal/cancel"
	"abw/internal/obs"
)

// WarmSolver re-solves one Problem across a sequence of right-hand-side
// changes without starting the simplex from scratch each time. The
// admission loop's availability LPs have exactly that shape: the
// constraint matrix (set rate vectors, path membership) is fixed while
// the per-link background demands — pure RHS — move between steps.
//
// After a cold SolveContext, the final tableau is retained. Its rows are
// B⁻¹·A with the rhs column B⁻¹·b, and each row's original identity
// column (the LE slack, or the GE/EQ artificial, kept in the tableau
// even though barred from the basis) currently holds B⁻¹·e_row. A
// change Δ to constraint k's rhs therefore updates the whole rhs
// column in one saxpy: rhs += Δ·column(unitCol[k]). The retained basis
// stays dual-feasible — the reduced costs don't involve b — so a few
// dual-simplex pivots restore primal feasibility, followed by a primal
// cleanup pass that re-establishes the exact optimality criterion the
// cold path uses. When anything about the warm path is off — structure
// grew, the dual loop stalls, a basic artificial resurfaces above
// tolerance, or dual simplex claims infeasibility — ResolveContext falls
// back to a cold solve, so its answers always match Problem.SolveContext
// within pivotTol-scale arithmetic noise.
//
// A WarmSolver owns its Problem between calls: the caller may change
// bounds through SetRHS and objective coefficients through the
// Problem's SetObjCoef (the next resolve then runs cold), but must not
// add variables or constraints after the first solve without expecting
// cold re-solves.
//
// WarmSolver is not safe for concurrent use.
type WarmSolver struct {
	p   *Problem
	tab *tableau

	// Dimensions at tableau build time; growth forces a cold rebuild.
	nVars, nCons int
	// solvedAt is the problem's mutation count when the retained
	// tableau was last brought to an optimum.
	solvedAt uint64

	lastPivots int
	lastWarm   bool
	warmCount  int
}

// NewWarmSolver wraps p. The first SolveContext (or ResolveContext)
// runs cold and retains the tableau.
func NewWarmSolver(p *Problem) *WarmSolver {
	return &WarmSolver{p: p}
}

// Problem returns the wrapped problem.
func (w *WarmSolver) Problem() *Problem { return w.p }

// SolveContext runs a cold two-phase solve and retains the final
// tableau for later warm resolves. Only an Optimal tableau is retained:
// that is the dual-feasibility precondition warm-starting needs. See
// Problem.SolveContext for ctx; a cancelled solve retains no tableau,
// so the next call rebuilds cold.
func (w *WarmSolver) SolveContext(ctx context.Context) (*Solution, error) {
	tm := obs.SpanFrom(ctx).StartStage(obs.StageLPSolve)
	defer tm.End()
	sol, tb, err := w.p.solve(cancel.NewChecker(ctx, pivotCheckEvery))
	if err != nil {
		w.tab = nil
		return nil, err
	}
	w.retain(tb)
	w.lastPivots = sol.Pivots
	w.lastWarm = false
	tm.AddPivots(int64(sol.Pivots))
	return sol, nil
}

func (w *WarmSolver) retain(tb *tableau) {
	w.tab = tb
	if tb != nil {
		w.nVars = w.p.NumVars()
		w.nCons = w.p.NumConstraints()
		w.solvedAt = w.p.mutations
	}
}

// SetRHS changes the right-hand side of constraint k and, when a
// tableau is retained, pushes the change through the retained inverse
// so the next ResolveContext can start warm.
func (w *WarmSolver) SetRHS(k int, rhs float64) error {
	old := w.p.RHS(k)
	if err := w.p.SetRHS(k, rhs); err != nil {
		return err
	}
	if w.tab == nil {
		return nil
	}
	if k >= len(w.tab.t) {
		// A constraint added after the build; the tableau no longer
		// describes the problem.
		w.tab = nil
		return nil
	}
	// Normalized-system delta: the row was scaled by rowSign at build
	// time, and stays scaled that way forever (re-normalizing on a sign
	// flip would be a different but equivalent system; keeping the
	// original sign keeps the feasible region and lets the rhs column
	// go negative, which is exactly what dual simplex repairs).
	delta := w.tab.rowSign[k] * (rhs - old)
	//lint:ignore abw/floateq exact no-op skip: an unchanged bound must not dirty the rhs column at all
	if delta == 0 {
		return nil
	}
	tb := w.tab
	for i := range tb.t {
		//lint:ignore abw/floateq exact-zero saxpy skip: true zeros contribute nothing
		if v := tb.t[i][tb.unitCol[k]]; v != 0 {
			tb.t[i][tb.total] += delta * v
		}
	}
	return nil
}

// ResolveContext solves the problem as it currently stands. When the
// retained tableau is usable it runs the warm path — dual simplex to
// restore primal feasibility, then a primal cleanup — and reports
// warm=true; otherwise (no tableau, structural growth, or any warm-path
// bailout) it re-solves cold and retains the fresh tableau.
//
// When nothing changed since the tableau's last optimum — no AddVar,
// AddConstraint, SetObjCoef or value-changing SetRHS — and the tableau
// passes the warm path's feasibility checks, the warm path would price
// once, find no entering column and return the same point at 0 pivots.
// The pricing is then skipped and that point extracted directly; it
// still counts as a warm resolve with 0 pivots.
//
// Both the warm dual loop and any cold fallback poll ctx between
// pivots. A cancelled resolve discards the retained tableau (it may be
// mid-pivot-sequence), so the next call after cancellation simply runs
// cold — correctness is never entrusted to a half-repaired basis.
func (w *WarmSolver) ResolveContext(ctx context.Context) (*Solution, bool, error) {
	// The timer starts on the warm stage and is re-labeled lp_solve if
	// the attempt falls through to a cold solve, so each resolve is
	// accounted exactly once under the path it actually took.
	tm := obs.SpanFrom(ctx).StartStage(obs.StageLPWarm)
	defer tm.End()
	chk := cancel.NewChecker(ctx, pivotCheckEvery)
	if w.tab != nil && (w.p.NumVars() != w.nVars || w.p.NumConstraints() != w.nCons) {
		w.tab = nil
	}
	if w.tab != nil {
		sol, ok, err := w.tab.dualResolve(w.p, chk, w.p.mutations == w.solvedAt)
		if err != nil {
			w.tab = nil
			return nil, false, err
		}
		if ok {
			w.solvedAt = w.p.mutations
			w.lastPivots = sol.Pivots
			w.lastWarm = true
			w.warmCount++
			tm.SetWarm(true)
			tm.AddPivots(int64(sol.Pivots))
			return sol, true, nil
		}
		// Warm path bailed out (stall, surviving artificial, or a
		// dual-infeasibility verdict we only trust from a cold solve).
		w.tab = nil
	}
	tm.SetStage(obs.StageLPSolve)
	sol, tb, err := w.p.solve(chk)
	if err != nil {
		return nil, false, err
	}
	w.retain(tb)
	w.lastPivots = sol.Pivots
	w.lastWarm = false
	tm.AddPivots(int64(sol.Pivots))
	return sol, false, nil
}

// RetainedBytes approximates the heap the solver keeps alive between
// resolves: the problem's names, objective, constraints and their
// coefficient maps, and the dense tableau a solve retains (its rows
// plus rhs column, 8·rows·(cols+1) bytes, and the per-row and
// per-column bookkeeping). The tableau is charged at the shape the
// problem builds whether or not one is retained right now — the next
// resolve retains one — so the charge depends only on the problem.
func (w *WarmSolver) RetainedBytes() int64 {
	const (
		headerBytes     = 256 // WarmSolver, Problem and tableau structs
		constraintBytes = 40  // name + coefs + rel + rhs
		rowHeaderBytes  = 48  // row slice header, basis, rowSign, unitCol
	)
	p := w.p
	n := int64(headerBytes)
	n += int64(cap(p.varNames))*16 + int64(cap(p.obj))*8 + int64(cap(p.cons))*constraintBytes
	for _, name := range p.varNames {
		n += int64(len(name))
	}
	for _, c := range p.cons {
		n += int64(len(c.name)) + coefMapBytes(len(c.coefs))
	}
	nSlack, nArt := p.auxColumns()
	rows, cols := int64(len(p.cons)), int64(len(p.obj)+nSlack+nArt)
	n += 8 * rows * (cols + 1)
	n += rows*rowHeaderBytes + cols + 3*8*cols // + isArt, cost scratch
	return n
}

// coefMapBytes approximates a map[Var]float64 of k entries: a header,
// then 8-slot groups of 16-byte slots plus a control word, grown by
// doubling at 7/8 load.
func coefMapBytes(k int) int64 {
	const headerBytes, slotBytes = 48, 17
	if k == 0 {
		return headerBytes
	}
	slots := 8
	for slots*7/8 < k {
		slots *= 2
	}
	return headerBytes + int64(slots)*slotBytes
}

// LastPivots returns the pivot count of the most recent solve or resolve.
func (w *WarmSolver) LastPivots() int { return w.lastPivots }

// LastWarm reports whether the most recent resolve took the warm path.
func (w *WarmSolver) LastWarm() bool { return w.lastWarm }

// WarmResolves returns how many ResolveContext calls took the warm path.
func (w *WarmSolver) WarmResolves() int { return w.warmCount }

// dualResolve runs dual simplex on the retained tableau to repair
// primal feasibility after rhs changes, then a primal cleanup pass.
// ok=false means the warm path cannot vouch for the result (the caller
// re-solves cold); err is reserved for malformed problems.
//
// unchanged says the problem has not been mutated since the tableau's
// last optimum. If the tableau is also settled, the loops below would
// do nothing: no dual pivot, and a cleanup that prices once and finds
// no entering column, because neither the tableau nor the costs moved
// since the primal loop last stopped at this basis. The point is then
// read off directly, skipping the pricing, bit-identical at 0 pivots.
func (tb *tableau) dualResolve(p *Problem, chk *cancel.Checker, unchanged bool) (*Solution, bool, error) {
	if p.sense != Minimize && p.sense != Maximize {
		return nil, false, fmt.Errorf("lp: invalid sense %d", int(p.sense))
	}
	if unchanged && tb.settled() {
		// The dual loop's first cancellation poll, so a cancelled
		// context fails here exactly as it would below.
		if err := chk.Check(); err != nil {
			return nil, false, err
		}
		sol := tb.solution(p)
		sol.Pivots = 0
		return sol, true, nil
	}
	t, basis, total := tb.t, tb.basis, tb.total
	c2 := tb.phase2Costs(p)
	startPivots := tb.pivots

	for iter := 0; ; iter++ {
		if iter >= maxPivots {
			return nil, false, nil // stalled; cold solve decides
		}
		if err := chk.Check(); err != nil {
			return nil, false, err
		}
		// Leaving row: most negative rhs.
		leaving := -1
		worst := -feasTol
		for i := range t {
			if v := t[i][total]; v < worst {
				worst = v
				leaving = i
			}
		}
		if leaving < 0 {
			break // primal feasible again
		}
		// Entering column: dual ratio test. Among eligible columns
		// (negative entry in the leaving row, artificials barred) pick
		// the one minimizing reduced-cost / |entry|, so the reduced
		// costs stay non-negative — dual feasibility is the loop
		// invariant. Ties break toward the lowest column index
		// (Bland-style, prevents cycling on degenerate duals).
		red := tb.reducedCosts(c2)
		entering := -1
		bestRatio := math.Inf(1)
		for j := 0; j < total; j++ {
			if tb.isArt[j] {
				continue
			}
			a := t[leaving][j]
			if a >= -pivotTol {
				continue
			}
			rc := red[j]
			if rc < 0 {
				rc = 0 // clamp tolerance-scale dual noise
			}
			ratio := rc / -a
			if ratio < bestRatio-pivotTol {
				bestRatio = ratio
				entering = j
			}
		}
		if entering < 0 {
			// Dual simplex says infeasible. Sound in exact arithmetic,
			// but we only report Infeasible from the cold path so warm
			// answers can never disagree with it.
			return nil, false, nil
		}
		pivot(t, basis, leaving, entering)
		tb.pivots++
	}

	// A basic artificial above tolerance means the repaired point does
	// not satisfy the original constraints; only phase 1 can judge that.
	for i, b := range basis {
		if tb.isArt[b] && math.Abs(t[i][total]) > feasTol {
			return nil, false, nil
		}
	}

	// Primal cleanup: rhs changes don't touch reduced costs, but the
	// clamp above can hide tolerance-scale dual infeasibility. Finish
	// with the same primal loop the cold path ends on, so warm and cold
	// optima satisfy the identical termination criterion.
	status, err := tb.primal(chk, c2, tb.isArt)
	if err != nil {
		if errors.Is(err, cancel.ErrCanceled) {
			return nil, false, err // cancelled: no cold retry, caller aborts
		}
		return nil, false, nil // stalled; cold solve decides
	}
	if status != Optimal {
		return nil, false, nil // unbounded from a warm basis: distrust, go cold
	}
	sol := tb.solution(p)
	sol.Pivots = tb.pivots - startPivots
	return sol, true, nil
}

// settled reports whether the tableau passes dualResolve's feasibility
// checks as it stands: no rhs entry below -feasTol (so no dual pivot)
// and no basic artificial above feasTol (so no cold fallback).
func (tb *tableau) settled() bool {
	for i, b := range tb.basis {
		v := tb.t[i][tb.total]
		if v < -feasTol || (tb.isArt[b] && math.Abs(v) > feasTol) {
			return false
		}
	}
	return true
}

// reducedCosts computes r_j = c_j − c_B·B⁻¹·A_j into the shared
// scratch vector. The tableau rows already are B⁻¹·A, so the basis
// multiplier c[basis[i]] is fixed per row; accumulation order matches
// the primal loop's for bit-identical values.
func (tb *tableau) reducedCosts(c []float64) []float64 {
	red := tb.red
	copy(red, c)
	for i := 0; i < len(tb.t); i++ {
		//lint:ignore abw/floateq exact-zero multiplier skip: omitting true-zero terms keeps the sum bit-identical
		if cb := c[tb.basis[i]]; cb != 0 {
			ti := tb.t[i]
			for j := 0; j < tb.total; j++ {
				red[j] -= cb * ti[j]
			}
		}
	}
	return red
}
