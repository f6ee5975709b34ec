package indepset

import (
	"context"

	"abw/internal/cancel"
	"abw/internal/conflict"
	"abw/internal/topology"
)

// enumerateFallback is the brute-force walk for models that are neither
// physical nor pairwise: it materializes every feasible couple
// assignment (feasibility must be downward monotone in set inclusion)
// and post-filters with the reference IsMaximal predicate.
//
// With workers > 1 the assignment lattice splits like the pairwise
// walk's (choiceTasks); the model's MaxRate/Rates must then be safe for
// concurrent read-only use (every model in internal/conflict is).
func enumerateFallback(ctx context.Context, m conflict.Model, universe []topology.LinkID, budget *budget, workers int) ([]Set, error) {
	e := &fallbackEnum{m: m, ctx: ctx, universe: universe, budget: budget}
	if workers <= 1 {
		w := &fallbackWorker{e: e, chk: cancel.NewChecker(ctx, 0)}
		err := w.rec(0)
		return w.maximalSets(), err
	}
	tasks := choiceTasks(len(universe), workers, func(i int) int { return len(m.Rates(universe[i])) })
	if workers > len(tasks) {
		workers = len(tasks)
	}
	return parallelRun(workers, len(tasks), func() (func(int) error, func() []Set) {
		w := &fallbackWorker{e: e, chk: cancel.NewChecker(ctx, 0)}
		return func(t int) error { return w.runTask(tasks[t]) },
			w.maximalSets
	})
}

// fallbackEnum is the read-only state shared by every worker of one
// brute-force enumeration.
type fallbackEnum struct {
	m conflict.Model
	//lint:ignore abw/ctxflow read-only per-enumeration worker state; lives strictly inside the enumeration call that received ctx
	ctx      context.Context
	universe []topology.LinkID
	budget   *budget
}

// fallbackWorker owns one worker's couple stack and materialized
// feasible assignments.
type fallbackWorker struct {
	e   *fallbackEnum
	chk *cancel.Checker // nil for uncancellable contexts (zero cost)
	cur []conflict.Couple
	all []Set
}

func (w *fallbackWorker) rec(idx int) error {
	e := w.e
	if err := w.chk.Check(); err != nil {
		return err
	}
	if idx == len(e.universe) {
		if len(w.cur) > 0 {
			if !e.budget.take() {
				return ErrLimit
			}
			w.all = append(w.all, NewSet(w.cur...))
		}
		return nil
	}
	// Exclude universe[idx].
	if err := w.rec(idx + 1); err != nil {
		return err
	}
	// Include at each rate that keeps the partial set feasible.
	for _, r := range e.m.Rates(e.universe[idx]) {
		w.cur = append(w.cur, conflict.Couple{Link: e.universe[idx], Rate: r})
		if conflict.Feasible(e.m, w.cur) {
			if err := w.rec(idx + 1); err != nil {
				w.cur = w.cur[:len(w.cur)-1]
				return err
			}
		}
		w.cur = w.cur[:len(w.cur)-1]
	}
	return nil
}

func (w *fallbackWorker) runTask(t choiceTask) error {
	pushed := 0
	feasible := true
	for idx, c := range t.choices {
		if c < 0 {
			continue
		}
		w.cur = append(w.cur, conflict.Couple{Link: w.e.universe[idx], Rate: w.e.m.Rates(w.e.universe[idx])[c]})
		pushed++
		if !conflict.Feasible(w.e.m, w.cur) {
			feasible = false
			break
		}
	}
	var err error
	if feasible {
		err = w.rec(len(t.choices))
	}
	w.cur = w.cur[:len(w.cur)-pushed]
	return err
}

// maximalSets post-filters the worker's materialized assignments with
// the reference maximality predicate — also after a truncated walk,
// whose partial family stays sound.
func (w *fallbackWorker) maximalSets() []Set {
	out := make([]Set, 0, len(w.all))
	for _, s := range w.all {
		if s.Len() == 0 {
			continue
		}
		if IsMaximal(w.e.m, s, w.e.universe) {
			out = append(out, s)
		}
	}
	return out
}
