// Package core implements the paper's primary contribution: the exact
// available-bandwidth model for a path with background traffic in a
// multirate, multihop wireless network (Sec. 2), together with the
// clique-derived upper bounds and independent-set lower bounds of
// Sec. 3.
//
// The exact model (Eq. 6) is a linear program over the maximal
// independent sets (coupled with maximum supported rate vectors) of the
// union of all involved paths: time shares lambda_alpha are assigned to
// the sets so that every background demand is met, the total share stays
// within one, and the throughput of the new path is maximized. Because
// the same link may appear with different rates in different sets, the
// optimum exploits time-varying link adaptation — the effect that breaks
// classical clique bounds (Sec. 3.2, reproduced in this package's
// bounds.go).
package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/lp"
	"abw/internal/memo"
	"abw/internal/schedule"
	"abw/internal/topology"
)

// Flow is a routed traffic demand: a path and its end-to-end throughput
// requirement in Mbps.
type Flow struct {
	Path   topology.Path
	Demand float64
}

// Options configure the availability computations.
type Options struct {
	// SetLimit caps independent-set enumeration (0 = package default).
	SetLimit int
	// OmegaLimit caps the number of rate vectors the Eq. 9 upper-bound
	// LP enumerates (0 = 4096). The paper notes Omega can reach Z^L and
	// proposes restricted enumerations; exceeding the cap is an error.
	OmegaLimit int
	// Workers sets the number of concurrent enumeration workers (see
	// indepset.Options.Workers): 0 picks automatically, 1 or negative
	// forces sequential, >1 forces that many workers.
	Workers int
	// Cache, when non-nil, memoizes complete set families across calls
	// keyed by (model fingerprint, universe, enumeration limit) and
	// collects solver statistics. When the cache carries an on-disk
	// store (memo.Cache.SetStore), misses additionally consult and
	// refill the spill directory, so the memo survives process
	// restarts. Safe because complete enumeration is deterministic: a
	// cached family — in memory or reloaded and revalidated from disk —
	// is byte-identical to a fresh one (DESIGN.md Sec. 8 and 11), so
	// results do not change — only their cost.
	Cache *memo.Cache
}

// indepOptions translates the core options into enumeration options.
func (o Options) indepOptions() indepset.Options {
	return indepset.Options{Limit: o.SetLimit, Workers: o.Workers}
}

// enumerate runs a complete maximal-set enumeration through the cache
// when one is configured (a nil cache passes straight through). The
// context cancels the walk; cancelled families are never cached.
func (o Options) enumerate(ctx context.Context, m conflict.Model, universe []topology.LinkID) ([]indepset.Set, error) {
	return o.Cache.EnumerateContext(ctx, m, universe, o.indepOptions())
}

// enumeratePartial is enumerate with graceful truncation; truncated
// families are never cached (their content depends on scheduling).
func (o Options) enumeratePartial(ctx context.Context, m conflict.Model, universe []topology.LinkID) ([]indepset.Set, bool, error) {
	return o.Cache.EnumeratePartialContext(ctx, m, universe, o.indepOptions())
}

func (o Options) omegaLimit() int {
	if o.OmegaLimit <= 0 {
		return 4096
	}
	return o.OmegaLimit
}

// Result is the outcome of an availability computation.
type Result struct {
	// Status is Optimal when the background demands are satisfiable;
	// Infeasible when the background alone cannot be delivered.
	Status lp.Status
	// Bandwidth is the maximum supportable throughput of the new path in
	// Mbps (the f_{K+1} of Eq. 6); meaningful only when Status is
	// Optimal.
	Bandwidth float64
	// Schedule delivers the background demands plus Bandwidth on the new
	// path; meaningful only when Status is Optimal.
	Schedule schedule.Schedule
	// Sets are the independent sets made available to the optimizer.
	Sets []indepset.Set
	// Links is the link universe P (union of all involved paths).
	Links []topology.LinkID
}

// AvailableBandwidthContext solves the paper's exact model (Eq. 6): the
// maximum throughput deliverable over newPath while every background
// flow keeps its demand, assuming globally optimal link scheduling. It
// enumerates the maximal independent sets of the union of all involved
// paths. Both the set enumeration and the Eq. 6 simplex poll ctx and
// abandon the computation with an error satisfying errors.Is(err,
// cancel.ErrCanceled) once it is cancelled; an uncancellable ctx
// (context.Background()) costs nothing.
func AvailableBandwidthContext(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, opts Options) (*Result, error) {
	if len(newPath) == 0 {
		return nil, fmt.Errorf("core: empty new path")
	}
	universe, err := flowUniverse(newPath, background)
	if err != nil {
		return nil, err
	}
	sets, err := opts.enumerate(ctx, m, universe)
	if err != nil {
		return nil, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	return solveWithSets(ctx, background, newPath, universe, sets, opts.Cache)
}

// AvailableBandwidthLowerBoundContext is AvailableBandwidthContext with
// graceful degradation for large instances: when independent-set
// enumeration exceeds the limit, the LP runs over the truncated (still
// sound) set family and the result is a LOWER bound on the true
// availability (Sec. 3.3); Truncated reports when that happened.
// Cancellation wins over truncation: a cancelled call returns
// ErrCanceled and no bound.
func AvailableBandwidthLowerBoundContext(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, opts Options) (*Result, bool, error) {
	if len(newPath) == 0 {
		return nil, false, fmt.Errorf("core: empty new path")
	}
	universe, err := flowUniverse(newPath, background)
	if err != nil {
		return nil, false, err
	}
	sets, truncated, err := opts.enumeratePartial(ctx, m, universe)
	if err != nil {
		return nil, false, fmt.Errorf("core: enumerating independent sets: %w", err)
	}
	res, err := solveWithSets(ctx, background, newPath, universe, sets, opts.Cache)
	if err != nil {
		return nil, truncated, err
	}
	return res, truncated, nil
}

// AvailableBandwidthWithSetsContext solves the Eq. 6 LP restricted to
// the given independent sets. With all maximal sets it is exact; with a
// subset it is the lower bound of Sec. 3.3 (the restricted solution
// space is contained in the true one). See AvailableBandwidthContext
// for ctx.
func AvailableBandwidthWithSetsContext(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, sets []indepset.Set) (*Result, error) {
	if len(newPath) == 0 {
		return nil, fmt.Errorf("core: empty new path")
	}
	universe, err := flowUniverse(newPath, background)
	if err != nil {
		return nil, err
	}
	return solveWithSets(ctx, background, newPath, universe, sets, nil)
}

// solveWithSets solves the Eq. 6 LP over the given family, reporting
// the solve's pivot count into the (possibly nil) cache's cold-solve
// counters.
func solveWithSets(ctx context.Context, background []Flow, newPath topology.Path, universe []topology.LinkID, sets []indepset.Set, cache *memo.Cache) (*Result, error) {
	demand := linkDemand(background)
	newCount := linkCount(newPath)

	prob := lp.NewProblem(lp.Maximize)
	prob.Reserve(len(sets)+1, len(universe)+1)
	lambdas := addLambdaVars(prob, sets, 0)
	f := prob.AddVar("f", 1)

	// Total share within one period.
	if err := addShareRow(prob, lambdas); err != nil {
		return nil, err
	}

	// Per-link throughput covers background demand plus f on the new
	// path.
	rows := lambdaRows(universe, sets, lambdas)
	for li, link := range universe {
		row := rows[li]
		if c := newCount[link]; c > 0 {
			row[f] = -float64(c)
		}
		if len(row) == 0 && demand[link] <= 0 {
			continue
		}
		if err := prob.AddOwnedConstraint(linkConsName(link), row, lp.GE, demand[link]); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	sol, err := prob.SolveContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: solving Eq.6 LP: %w", err)
	}
	cache.AddSolvePivots(false, sol.Pivots, 0)
	res := &Result{Status: sol.Status, Sets: sets, Links: universe}
	if sol.Status != lp.Optimal {
		return res, nil
	}
	res.Bandwidth = sol.Objective
	sched := shareSchedule(sol, sets, lambdas)
	res.Schedule = sched.Normalized()
	return res, nil
}

// FeasibleDemandsContext reports whether the given flows can all be
// delivered simultaneously (the feasibility side of Eq. 2/4), and
// returns a delivering schedule when they can. See
// AvailableBandwidthContext for ctx. A cancelled call returns no
// verdict: callers must not treat ErrCanceled as "infeasible".
func FeasibleDemandsContext(ctx context.Context, m conflict.Model, flows []Flow, opts Options) (bool, schedule.Schedule, error) {
	if len(flows) == 0 {
		return true, schedule.Schedule{}, nil
	}
	universe, err := flowUniverse(nil, flows)
	if err != nil {
		return false, schedule.Schedule{}, err
	}
	sets, err := opts.enumerate(ctx, m, universe)
	if err != nil {
		return false, schedule.Schedule{}, fmt.Errorf("core: enumerating independent sets: %w", err)
	}

	// Reuse the Eq. 6 machinery with the last flow's demand moved into
	// the background: treat all flows as background and maximize the
	// leftover share (equivalently: any feasible solution proves
	// deliverability).
	demand := linkDemand(flows)
	prob := lp.NewProblem(lp.Maximize)
	prob.Reserve(len(sets), len(universe)+1)
	lambdas := addLambdaVars(prob, sets, -1)
	if err := addShareRow(prob, lambdas); err != nil {
		return false, schedule.Schedule{}, err
	}
	rows := lambdaRows(universe, sets, lambdas)
	for li, link := range universe {
		if demand[link] <= 0 {
			continue
		}
		row := rows[li]
		if len(row) == 0 {
			return false, schedule.Schedule{}, nil // demanded link can never transmit
		}
		if err := prob.AddOwnedConstraint(linkConsName(link), row, lp.GE, demand[link]); err != nil {
			return false, schedule.Schedule{}, fmt.Errorf("core: %w", err)
		}
	}
	sol, err := prob.SolveContext(ctx)
	if err != nil {
		return false, schedule.Schedule{}, fmt.Errorf("core: solving feasibility LP: %w", err)
	}
	opts.Cache.AddSolvePivots(false, sol.Pivots, 0)
	if sol.Status != lp.Optimal {
		return false, schedule.Schedule{}, nil
	}
	sched := shareSchedule(sol, sets, lambdas)
	return true, sched.Normalized(), nil
}

// MaxDemandScaleContext returns the largest theta such that every new
// flow j can be delivered at theta times its demand alongside the
// background (the paper's multi-flow extension of Sec. 2.5). theta >= 1
// means the new flows are jointly admissible. The second return is the
// delivering schedule at the optimum. See AvailableBandwidthContext for
// ctx.
func MaxDemandScaleContext(ctx context.Context, m conflict.Model, background, newFlows []Flow, opts Options) (float64, schedule.Schedule, error) {
	if len(newFlows) == 0 {
		return 0, schedule.Schedule{}, fmt.Errorf("core: no new flows")
	}
	universe, err := flowUniverse(nil, background, newFlows)
	if err != nil {
		return 0, schedule.Schedule{}, err
	}
	for _, f := range newFlows {
		if f.Demand <= 0 {
			return 0, schedule.Schedule{}, fmt.Errorf("core: new flow demand must be positive, got %g", f.Demand)
		}
	}
	sets, err := opts.enumerate(ctx, m, universe)
	if err != nil {
		return 0, schedule.Schedule{}, fmt.Errorf("core: enumerating independent sets: %w", err)
	}

	bgDemand := linkDemand(background)
	// Per-link coefficient of theta: sum over new flows of demand *
	// occurrences.
	thetaCoef := make(map[topology.LinkID]float64)
	for _, f := range newFlows {
		for _, l := range f.Path {
			thetaCoef[l] += f.Demand
		}
	}

	prob := lp.NewProblem(lp.Maximize)
	prob.Reserve(len(sets)+1, len(universe)+1)
	lambdas := addLambdaVars(prob, sets, 0)
	theta := prob.AddVar("theta", 1)
	if err := addShareRow(prob, lambdas); err != nil {
		return 0, schedule.Schedule{}, err
	}
	rows := lambdaRows(universe, sets, lambdas)
	for li, link := range universe {
		row := rows[li]
		if c := thetaCoef[link]; c > 0 {
			row[theta] = -c
		}
		if len(row) == 0 && bgDemand[link] <= 0 {
			continue
		}
		if err := prob.AddOwnedConstraint(linkConsName(link), row, lp.GE, bgDemand[link]); err != nil {
			return 0, schedule.Schedule{}, fmt.Errorf("core: %w", err)
		}
	}
	sol, err := prob.SolveContext(ctx)
	if err != nil {
		return 0, schedule.Schedule{}, fmt.Errorf("core: solving scale LP: %w", err)
	}
	opts.Cache.AddSolvePivots(false, sol.Pivots, 0)
	if sol.Status != lp.Optimal {
		return 0, schedule.Schedule{}, nil
	}
	sched := shareSchedule(sol, sets, lambdas)
	return sol.Objective, sched.Normalized(), nil
}

// flowUniverse is the prologue every entry shares: it validates each
// flow group in order (flow indices in errors count within the group)
// and returns the link universe P, the union of every flow's path and
// newPath (which may be nil).
func flowUniverse(newPath topology.Path, groups ...[]Flow) ([]topology.LinkID, error) {
	n := 1
	for _, g := range groups {
		if err := validateFlows(g); err != nil {
			return nil, err
		}
		n += len(g)
	}
	paths := make([]topology.Path, 0, n)
	for _, g := range groups {
		for _, f := range g {
			paths = append(paths, f.Path)
		}
	}
	if len(newPath) > 0 {
		paths = append(paths, newPath)
	}
	return topology.LinkUnion(paths...), nil
}

// shareSchedule reads the schedule off an optimal Eq. 6-shaped solution:
// one slot per set whose time share exceeds 1e-12, in family order.
func shareSchedule(sol *lp.Solution, sets []indepset.Set, lambdas []lp.Var) schedule.Schedule {
	var sched schedule.Schedule
	for i, s := range sets {
		if share := sol.Value(lambdas[i]); share > 1e-12 {
			sched.Slots = append(sched.Slots, schedule.Slot{Set: s, Share: share})
		}
	}
	return sched
}

// addLambdaVars declares one time-share variable per independent set
// (in family order) with the given objective coefficient. They stay
// unnamed: a name would reach only lp's non-finite-coefficient error,
// which set rates cannot trigger, and a session retains every warm LP's
// names.
func addLambdaVars(prob *lp.Problem, sets []indepset.Set, objCoef float64) []lp.Var {
	lambdas := make([]lp.Var, len(sets))
	for i := range sets {
		lambdas[i] = prob.AddVar("", objCoef)
	}
	return lambdas
}

// addShareRow adds the Eq. 6 total-share row, the lambdas' time shares
// summing to at most one period; an empty family adds no row.
func addShareRow(prob *lp.Problem, lambdas []lp.Var) error {
	if len(lambdas) == 0 {
		return nil
	}
	row := make(map[lp.Var]float64, len(lambdas))
	for _, v := range lambdas {
		row[v] = 1
	}
	if err := prob.AddOwnedConstraint("total-share", row, lp.LE, 1); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// lambdaRows builds, for every universe link (result aligned with
// universe order), the Eq. 6 throughput row mapping each set's lambda to
// the rate the set serves that link at — one pass over each set's
// couples instead of a per-link scan of every set. Rows come back ready
// to extend (the caller may add f/theta columns) and links no set serves
// get empty rows.
func lambdaRows(universe []topology.LinkID, sets []indepset.Set, lambdas []lp.Var) []map[lp.Var]float64 {
	rows := make([]map[lp.Var]float64, len(universe))
	for i := range universe {
		rows[i] = make(map[lp.Var]float64)
	}
	// universe comes from topology.LinkUnion / indepset enumeration and
	// is sorted ascending; locate each couple's row by binary search.
	find := func(link topology.LinkID) int {
		lo, hi := 0, len(universe)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if universe[mid] < link {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(universe) && universe[lo] == link {
			return lo
		}
		return -1
	}
	for i, s := range sets {
		for _, c := range s.Couples {
			li := find(c.Link)
			if li < 0 || c.Rate <= 0 {
				continue
			}
			row := rows[li]
			// First occurrence wins on (malformed) duplicate links,
			// matching Set.Rate's behavior.
			if _, dup := row[lambdas[i]]; !dup {
				row[lambdas[i]] = float64(c.Rate)
			}
		}
	}
	return rows
}

func linkConsName(link topology.LinkID) string {
	return "link-" + strconv.Itoa(int(link))
}

func validateFlows(flows []Flow) error {
	for i, f := range flows {
		if len(f.Path) == 0 {
			return fmt.Errorf("core: flow %d has empty path", i)
		}
		if f.Demand < 0 || math.IsNaN(f.Demand) || math.IsInf(f.Demand, 0) {
			return fmt.Errorf("core: flow %d has invalid demand %g", i, f.Demand)
		}
	}
	return nil
}

// linkDemand aggregates per-link background demand: a flow contributes
// its demand to every occurrence of a link on its path.
func linkDemand(flows []Flow) map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64)
	for _, f := range flows {
		for _, l := range f.Path {
			out[l] += f.Demand
		}
	}
	return out
}

func linkCount(path topology.Path) map[topology.LinkID]int {
	out := make(map[topology.LinkID]int, len(path))
	for _, l := range path {
		out[l]++
	}
	return out
}
