// Package lp is a self-contained dense linear-programming solver used by
// the availability model: a two-phase primal simplex over a full
// tableau, with a small modeling layer (named variables, relational
// constraints). The paper's LPs are tiny by LP standards — tens of rows,
// up to a few thousand columns — so a dense tableau with Dantzig pricing
// (falling back to Bland's rule to break cycling) is exact and fast.
//
// All variables are non-negative; encode free variables as differences
// if ever needed. Infeasibility and unboundedness are reported through
// Solution.Status, not errors: they are expected outcomes of the
// admission-control questions this package answers.
package lp

import (
	"context"
	"fmt"
	"math"

	"abw/internal/cancel"
	"abw/internal/obs"
)

// Sense is the optimization direction.
type Sense int

// Optimization senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	// LE is <=.
	LE Rel = iota + 1
	// GE is >=.
	GE
	// EQ is =.
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Var identifies a decision variable within one Problem.
type Var int

type constraint struct {
	name  string
	coefs map[Var]float64
	rel   Rel
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
type Problem struct {
	sense    Sense
	varNames []string
	obj      []float64
	cons     []constraint
	// mutations counts the changes that can move the optimum (new
	// variables or constraints, objective or rhs changes), so a
	// WarmSolver can tell an unchanged problem from a changed one.
	mutations uint64
}

// NewProblem returns an empty problem with the given sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVar adds a non-negative decision variable with the given objective
// coefficient and returns its handle.
func (p *Problem) AddVar(name string, objCoef float64) Var {
	p.varNames = append(p.varNames, name)
	p.obj = append(p.obj, objCoef)
	p.mutations++
	return Var(len(p.obj) - 1)
}

// Reserve pre-sizes internal storage for an expected number of
// variables and constraints, avoiding repeated growth when the caller
// knows the problem shape up front. It never shrinks.
func (p *Problem) Reserve(nVars, nCons int) {
	if nVars > cap(p.varNames) {
		names := make([]string, len(p.varNames), nVars)
		copy(names, p.varNames)
		p.varNames = names
		obj := make([]float64, len(p.obj), nVars)
		copy(obj, p.obj)
		p.obj = obj
	}
	if nCons > cap(p.cons) {
		cons := make([]constraint, len(p.cons), nCons)
		copy(cons, p.cons)
		p.cons = cons
	}
}

// SetObjCoef replaces the objective coefficient of v.
func (p *Problem) SetObjCoef(v Var, c float64) error {
	if int(v) < 0 || int(v) >= len(p.obj) {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	p.obj[v] = c
	p.mutations++
	return nil
}

// VarName returns the name given to v at creation, or x<index> for a
// variable created unnamed or a handle out of range.
func (p *Problem) VarName(v Var) string {
	if int(v) < 0 || int(v) >= len(p.varNames) || p.varNames[v] == "" {
		return fmt.Sprintf("x%d", int(v))
	}
	return p.varNames[v]
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddConstraint adds sum(coefs[v]*v) rel rhs. The coefficient map is
// copied. Unknown variables are rejected.
func (p *Problem) AddConstraint(name string, coefs map[Var]float64, rel Rel, rhs float64) error {
	if rel != LE && rel != GE && rel != EQ {
		return fmt.Errorf("lp: constraint %q has invalid relation %d", name, int(rel))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %q has non-finite rhs %g", name, rhs)
	}
	cp := make(map[Var]float64, len(coefs))
	for v, c := range coefs {
		if int(v) < 0 || int(v) >= len(p.obj) {
			//lint:ignore abw/maporder rejection is all-or-nothing; any one offending variable names the error
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, v)
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			//lint:ignore abw/maporder rejection is all-or-nothing; any one offending coefficient names the error
			return fmt.Errorf("lp: constraint %q has non-finite coefficient %g for %s", name, c, p.VarName(v))
		}
		//lint:ignore abw/floateq exact-zero sparsity skip: dropping only true zeros leaves the tableau bit-identical
		if c != 0 {
			cp[v] = c
		}
	}
	p.cons = append(p.cons, constraint{name: name, coefs: cp, rel: rel, rhs: rhs})
	p.mutations++
	return nil
}

// AddOwnedConstraint is AddConstraint without the defensive copy: the
// problem takes ownership of coefs (zero coefficients are deleted in
// place) and the caller must not touch the map afterwards. Row builders
// that assemble a fresh map per constraint use this to skip one map
// allocation per row.
func (p *Problem) AddOwnedConstraint(name string, coefs map[Var]float64, rel Rel, rhs float64) error {
	if rel != LE && rel != GE && rel != EQ {
		return fmt.Errorf("lp: constraint %q has invalid relation %d", name, int(rel))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %q has non-finite rhs %g", name, rhs)
	}
	for v, c := range coefs {
		if int(v) < 0 || int(v) >= len(p.obj) {
			//lint:ignore abw/maporder rejection is all-or-nothing; any one offending variable names the error
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, v)
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			//lint:ignore abw/maporder rejection is all-or-nothing; any one offending coefficient names the error
			return fmt.Errorf("lp: constraint %q has non-finite coefficient %g for %s", name, c, p.VarName(v))
		}
		//lint:ignore abw/floateq exact-zero sparsity skip: dropping only true zeros leaves the tableau bit-identical
		if c == 0 {
			delete(coefs, v)
		}
	}
	p.cons = append(p.cons, constraint{name: name, coefs: coefs, rel: rel, rhs: rhs})
	p.mutations++
	return nil
}

// Solution is the result of a solve.
type Solution struct {
	// Status reports whether an optimum was found.
	Status Status
	// Objective is the optimal objective value in the problem's own
	// sense; meaningful only when Status is Optimal.
	Objective float64
	// X holds the variable values; meaningful only when Status is
	// Optimal.
	X []float64
	// Pivots counts the simplex pivots this solve performed (both
	// phases; for a warm resolve, the dual pivots plus any primal
	// cleanup). It feeds the cache-stats surface (internal/memo).
	Pivots int
}

// Value returns the optimal value of v (0 for out-of-range handles).
func (s *Solution) Value(v Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.X) {
		return 0
	}
	return s.X[v]
}

// Tolerances and iteration limits of the simplex loop.
const (
	pivotTol    = 1e-9
	feasTol     = 1e-7
	blandAfter  = 5000
	maxPivots   = 200000
	reducedCost = 1e-9
)

// pivotCheckEvery is the countdown interval of the per-pivot
// cancellation check: one channel poll per 16 pivots keeps the simplex
// loop responsive (pivots on the paper's LPs are microseconds) while
// the uncancellable path pays only the nil-Checker branch.
const pivotCheckEvery = 16

// SolveContext runs two-phase primal simplex. It returns an error only
// on malformed problems or on an internal failure to converge;
// infeasible and unbounded programs come back as Solutions with the
// matching Status. The simplex loop polls ctx.Done() between pivots and
// abandons the solve with an error satisfying errors.Is(err,
// cancel.ErrCanceled) once ctx is cancelled; an uncancellable ctx
// (context.Background()) pays only the nil-Checker branch.
func (p *Problem) SolveContext(ctx context.Context) (*Solution, error) {
	tm := obs.SpanFrom(ctx).StartStage(obs.StageLPSolve)
	defer tm.End()
	sol, _, err := p.solve(cancel.NewChecker(ctx, pivotCheckEvery))
	if sol != nil {
		tm.AddPivots(int64(sol.Pivots))
	}
	return sol, err
}

// solve is SolveContext returning the final tableau alongside the solution so
// WarmSolver (warm.go) can retain it across right-hand-side changes.
// The tableau is nil unless phase 2 ran to optimality (only then is the
// retained basis dual-feasible, the warm-start precondition). A nil chk
// means the solve cannot be cancelled.
func (p *Problem) solve(chk *cancel.Checker) (*Solution, *tableau, error) {
	if p.sense != Minimize && p.sense != Maximize {
		return nil, nil, fmt.Errorf("lp: invalid sense %d", int(p.sense))
	}
	if len(p.obj) == 0 {
		return nil, nil, fmt.Errorf("lp: no variables")
	}

	tb := p.newTableau()

	// Phase 1: minimize the sum of artificials.
	if tb.nArt > 0 {
		feasible, err := tb.phase1(chk)
		if err != nil {
			return nil, nil, err
		}
		if !feasible {
			return &Solution{Status: Infeasible, Pivots: tb.pivots}, nil, nil
		}
	}

	// Phase 2: original objective (as minimization).
	status, err := tb.primal(chk, tb.phase2Costs(p), tb.isArt)
	if err != nil {
		return nil, nil, fmt.Errorf("lp: phase 2: %w", err)
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Pivots: tb.pivots}, nil, nil
	}
	return tb.solution(p), tb, nil
}

// SetRHS replaces the right-hand side of constraint k (in insertion
// order). WarmSolver turns this into an incremental tableau update;
// a plain SolveContext simply rebuilds from the new value.
func (p *Problem) SetRHS(k int, rhs float64) error {
	if k < 0 || k >= len(p.cons) {
		return fmt.Errorf("lp: constraint %d out of range", k)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %q given non-finite rhs %g", p.cons[k].name, rhs)
	}
	//lint:ignore abw/floateq exact no-op test: only a bound that actually moved invalidates a retained optimum
	if p.cons[k].rhs != rhs {
		p.mutations++
	}
	p.cons[k].rhs = rhs
	return nil
}

// RHS returns the current right-hand side of constraint k.
func (p *Problem) RHS(k int) float64 {
	if k < 0 || k >= len(p.cons) {
		return 0
	}
	return p.cons[k].rhs
}

// tableau is the dense simplex state: rows are B^-1·A with the rhs
// column B^-1·b appended, in constraint order. SolveContext builds one
// per call; WarmSolver keeps the final tableau alive so a bound change can
// update the rhs column through the retained inverse (see warm.go).
type tableau struct {
	t     [][]float64
	basis []int
	isArt []bool

	// rowSign records the ±1 each row was normalized by at build time
	// (negative-rhs rows are negated); unitCol names the column that
	// started as the row's identity column (the LE slack, or the GE/EQ
	// artificial), whose current contents are exactly B^-1·e_row.
	rowSign []float64
	unitCol []int

	n     int // structural variables
	total int // structural + slack + artificial columns
	nArt  int

	cbuf []float64 // phase-1 costs, phase-2 costs, reduced costs
	red  []float64

	// pivots counts every pivot performed on this tableau, across
	// phases and warm resolves.
	pivots int
}

// auxColumns counts the slack and artificial columns the tableau of p
// gets: one slack per LE row, a slack and an artificial per GE row, an
// artificial per EQ row, after negative-rhs rows are negated (which
// swaps LE and GE).
func (p *Problem) auxColumns() (nSlack, nArt int) {
	for _, c := range p.cons {
		rel := c.rel
		if c.rhs < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	return nSlack, nArt
}

// newTableau builds the initial tableau for p: rows normalized to a
// non-negative rhs, slack columns first, artificial columns last, the
// starting basis on the identity columns.
func (p *Problem) newTableau() *tableau {
	n := len(p.obj)
	m := len(p.cons)
	nSlack, nArt := p.auxColumns()
	total := n + nSlack + nArt

	tb := &tableau{
		t:       make([][]float64, m),
		basis:   make([]int, m),
		isArt:   make([]bool, total),
		rowSign: make([]float64, m),
		unitCol: make([]int, m),
		n:       n,
		total:   total,
		nArt:    nArt,
	}

	// Dense tableau rows plus rhs column, in one backing allocation.
	back := make([]float64, m*(total+1))
	slackCol := n
	artCol := n + nSlack
	for i, c := range p.cons {
		row := back[i*(total+1) : (i+1)*(total+1)]
		sign := 1.0
		rel := c.rel
		if c.rhs < 0 {
			sign = -1
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		for v, coef := range c.coefs {
			row[v] = sign * coef
		}
		row[total] = sign * c.rhs
		tb.rowSign[i] = sign
		switch rel {
		case LE:
			row[slackCol] = 1
			tb.basis[i] = slackCol
			tb.unitCol[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			tb.isArt[artCol] = true
			tb.basis[i] = artCol
			tb.unitCol[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			tb.isArt[artCol] = true
			tb.basis[i] = artCol
			tb.unitCol[i] = artCol
			artCol++
		}
		tb.t[i] = row
	}

	// Scratch buffers shared by both phases: phase-1/phase-2 costs and
	// the reduced-cost vector.
	tb.cbuf = make([]float64, 3*total)
	tb.red = tb.cbuf[2*total:]
	return tb
}

// phase1 minimizes the sum of artificials and drives any degenerate
// survivors out of the basis. It reports whether the problem is
// feasible.
func (tb *tableau) phase1(chk *cancel.Checker) (bool, error) {
	t, basis, total := tb.t, tb.basis, tb.total
	c1 := tb.cbuf[:total]
	for j := range c1 {
		if tb.isArt[j] {
			c1[j] = 1
		}
	}
	status, err := tb.primal(chk, c1, nil)
	if err != nil {
		return false, fmt.Errorf("lp: phase 1: %w", err)
	}
	if status == Unbounded {
		return false, fmt.Errorf("lp: phase 1 unbounded (internal error)")
	}
	// Phase-1 objective value.
	p1 := 0.0
	for i, b := range basis {
		if tb.isArt[b] {
			p1 += t[i][total]
		}
	}
	if p1 > feasTol {
		return false, nil
	}
	// Drive any remaining (degenerate) artificials out of the basis.
	for i, b := range basis {
		if !tb.isArt[b] {
			continue
		}
		pivoted := false
		for j := 0; j < total; j++ {
			if tb.isArt[j] {
				continue
			}
			if math.Abs(t[i][j]) > pivotTol {
				pivot(t, basis, i, j)
				tb.pivots++
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: the artificial stays basic at zero; it
			// is harmless because artificial columns are barred from
			// entering in phase 2.
			t[i][total] = 0
		}
	}
	return true, nil
}

// phase2Costs fills and returns the phase-2 cost vector: the problem's
// objective in minimization form over the structural columns.
func (tb *tableau) phase2Costs(p *Problem) []float64 {
	c2 := tb.cbuf[tb.total : 2*tb.total]
	for j := 0; j < tb.n; j++ {
		if p.sense == Maximize {
			c2[j] = -p.obj[j]
		} else {
			c2[j] = p.obj[j]
		}
	}
	return c2
}

// solution extracts the optimal solution from the tableau.
func (tb *tableau) solution(p *Problem) *Solution {
	x := make([]float64, tb.n)
	for i, b := range tb.basis {
		if b < tb.n {
			x[b] = tb.t[i][tb.total]
		}
	}
	obj := 0.0
	for j := 0; j < tb.n; j++ {
		obj += p.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Pivots: tb.pivots}
}

// primal runs the primal simplex loop on the tableau, minimizing cost
// c, counting pivots into tb.pivots.
func (tb *tableau) primal(chk *cancel.Checker, c []float64, barred []bool) (Status, error) {
	status, pivots, err := simplex(tb.t, tb.basis, c, barred, tb.red, chk)
	tb.pivots += pivots
	return status, err
}

// simplex runs the primal simplex loop on the tableau, minimizing cost
// c. Columns with barred[j] true may not enter the basis (artificials
// in phase 2). It returns Optimal or Unbounded plus the pivot count. A
// non-nil chk is polled once per iteration (amortized by its countdown)
// and aborts the loop with the cancellation cause.
func simplex(t [][]float64, basis []int, c []float64, barred []bool, red []float64, chk *cancel.Checker) (Status, int, error) {
	m := len(t)
	if m == 0 {
		// With no rows, any variable with negative cost increases without
		// bound.
		for j := range c {
			if (barred == nil || !barred[j]) && c[j] < -reducedCost {
				return Unbounded, 0, nil
			}
		}
		return Optimal, 0, nil
	}
	total := len(c)
	rhs := total

	for iter := 0; iter < maxPivots; iter++ {
		if err := chk.Check(); err != nil {
			return 0, iter, err
		}
		// Reduced costs: r_j = c_j - c_B . B^-1 A_j. The tableau rows
		// already are B^-1 A, so r_j = c_j - sum_i c[basis[i]] * t[i][j].
		// The dual multiplier c[basis[i]] is fixed per row, so accumulate
		// row-major across all columns at once instead of re-reading it
		// inside a per-column loop. Summation order over i (ascending,
		// zero multipliers skipped) matches the per-column form, so the
		// reduced costs are bit-identical.
		copy(red, c)
		for i := 0; i < m; i++ {
			//lint:ignore abw/floateq exact-zero multiplier skip: omitting true-zero terms keeps the sum bit-identical
			if cb := c[basis[i]]; cb != 0 {
				ti := t[i]
				for j := 0; j < total; j++ {
					red[j] -= cb * ti[j]
				}
			}
		}
		entering := -1
		best := -reducedCost
		useBland := iter >= blandAfter
		for j := 0; j < total; j++ {
			if barred != nil && barred[j] {
				continue
			}
			if r := red[j]; r < -reducedCost {
				if useBland {
					entering = j
					break
				}
				if r < best {
					best = r
					entering = j
				}
			}
		}
		if entering < 0 {
			return Optimal, iter, nil
		}

		leaving := ratioTest(t, basis, entering, rhs)
		if leaving < 0 {
			return Unbounded, iter, nil
		}
		pivot(t, basis, leaving, entering)
	}
	return 0, maxPivots, fmt.Errorf("simplex did not converge within %d pivots", maxPivots)
}

// ratioTest picks the leaving row for the given entering column: the row
// minimizing t[i][rhs] / t[i][entering] over rows with a positive pivot
// candidate, breaking near-ties (within pivotTol) toward the lowest
// basis index for Bland-style anti-cycling. Returns -1 when no row has a
// positive entry (the column is unbounded).
//
// The true minimum is established in a first pass before any tie-break
// runs: folding both into one pass can leave minRatio stale — or drag it
// upward through a chain of within-tolerance tie wins — so that a later,
// genuinely smaller ratio is compared against the wrong bound and the
// chosen pivot drives basic variables negative.
func ratioTest(t [][]float64, basis []int, entering, rhs int) int {
	minRatio := math.Inf(1)
	for i := range t {
		if a := t[i][entering]; a > pivotTol {
			if ratio := t[i][rhs] / a; ratio < minRatio {
				minRatio = ratio
			}
		}
	}
	leaving := -1
	for i := range t {
		if a := t[i][entering]; a > pivotTol {
			if ratio := t[i][rhs] / a; ratio < minRatio+pivotTol &&
				(leaving < 0 || basis[i] < basis[leaving]) {
				leaving = i
			}
		}
	}
	return leaving
}

// pivot performs a Gauss-Jordan pivot on t[row][col] and updates the
// basis.
func pivot(t [][]float64, basis []int, row, col int) {
	pr := t[row]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		//lint:ignore abw/floateq exact-zero row skip: a true-zero multiplier contributes nothing; tolerance here would zero real entries
		if f == 0 {
			continue
		}
		ri := t[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // clean residual error
	}
	basis[row] = col
}
