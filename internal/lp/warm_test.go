package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abw/internal/cancel"
	"abw/internal/obs"
)

// warmTol bounds the disagreement we accept between a warm resolve and
// a from-scratch cold solve of the same program. The property tests
// draw dyadic-rational data (k/8), so simplex arithmetic is near-exact
// and the two paths agree to pivot-tolerance scale.
const warmTol = 1e-8

// dyadic returns a random dyadic rational in [-4, 4] with denominator 8.
func dyadic(rng *rand.Rand) float64 { return float64(rng.Intn(65)-32) / 8 }

// randomWarmLP builds a random LP with mixed relations. Every variable
// sits under a box row sum(x) <= bound, so the program is never
// unbounded; feasibility is left to chance (infeasible programs are a
// case the warm path must get right too).
func randomWarmLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(4)
	m := 2 + rng.Intn(4)
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	p := NewProblem(sense)
	xs := make([]Var, n)
	for j := 0; j < n; j++ {
		xs[j] = p.AddVar(fmt.Sprintf("x%d", j), dyadic(rng))
	}
	for i := 0; i < m; i++ {
		row := make(map[Var]float64, n)
		for j := 0; j < n; j++ {
			row[xs[j]] = dyadic(rng)
		}
		rel := LE
		switch rng.Intn(4) { // LE-heavy mix keeps most programs feasible
		case 0:
			rel = GE
		case 1:
			rel = EQ
		}
		rhs := float64(rng.Intn(33)) / 8
		if rel == GE {
			rhs = -rhs // x=0 satisfies sum >= negative rhs more often
		}
		if err := p.AddConstraint(fmt.Sprintf("c%d", i), row, rel, rhs); err != nil {
			panic(err)
		}
	}
	box := make(map[Var]float64, n)
	for _, v := range xs {
		box[v] = 1
	}
	if err := p.AddConstraint("box", box, LE, float64(16+rng.Intn(65))/8); err != nil {
		panic(err)
	}
	return p
}

// cloneProblem deep-copies a problem so the cold reference solve sees
// the same data the warm solver mutated via SetRHS.
func cloneProblem(p *Problem) *Problem {
	q := NewProblem(p.sense)
	for j := range p.obj {
		q.AddVar(p.varNames[j], p.obj[j])
	}
	for _, c := range p.cons {
		coefs := make(map[Var]float64, len(c.coefs))
		for v, co := range c.coefs {
			coefs[v] = co
		}
		if err := q.AddOwnedConstraint(c.name, coefs, c.rel, c.rhs); err != nil {
			panic(err)
		}
	}
	return q
}

// assertAgrees checks a warm (or fallback) resolve against a cold
// solve of an identical problem: same status, and objectives within
// warmTol when both are Optimal.
func assertAgrees(t *testing.T, trial, step int, warm, cold *Solution) {
	t.Helper()
	if warm.Status != cold.Status {
		t.Fatalf("trial %d step %d: warm status %v, cold %v", trial, step, warm.Status, cold.Status)
	}
	if warm.Status != Optimal {
		return
	}
	if math.Abs(warm.Objective-cold.Objective) > warmTol {
		t.Fatalf("trial %d step %d: warm objective %.12g, cold %.12g (diff %g)",
			trial, step, warm.Objective, cold.Objective, warm.Objective-cold.Objective)
	}
}

// TestWarmMatchesColdOnBoundChanges is the Sec. 8-style warm-start
// invariant: over randomized programs and randomized bound-change
// sequences, every ResolveContext answer equals a from-scratch solve of the
// same data — same status, same optimum within warmTol.
func TestWarmMatchesColdOnBoundChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	warmResolves := 0
	for trial := 0; trial < 120; trial++ {
		p := randomWarmLP(rng)
		w := NewWarmSolver(p)
		sol, err := w.SolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		coldRef, err := cloneProblem(p).SolveContext(context.Background())
		if err != nil {
			t.Fatalf("trial %d: reference solve: %v", trial, err)
		}
		assertAgrees(t, trial, -1, sol, coldRef)

		steps := 1 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			k := rng.Intn(p.NumConstraints())
			if err := w.SetRHS(k, dyadic(rng)+2); err != nil {
				t.Fatalf("trial %d step %d: SetRHS: %v", trial, step, err)
			}
			got, warm, err := w.ResolveContext(context.Background())
			if err != nil {
				t.Fatalf("trial %d step %d: resolve: %v", trial, step, err)
			}
			if warm {
				warmResolves++
			}
			want, err := cloneProblem(p).SolveContext(context.Background())
			if err != nil {
				t.Fatalf("trial %d step %d: reference solve: %v", trial, step, err)
			}
			assertAgrees(t, trial, step, got, want)
		}
	}
	// The point of the exercise: the warm path must actually fire, not
	// silently fall back to cold on every step.
	if warmResolves == 0 {
		t.Fatal("no resolve ever took the warm path")
	}
	t.Logf("warm resolves: %d", warmResolves)
}

// TestWarmPivotSavings pins the performance claim on a representative
// availability-shaped LP: maximize f subject to capacity rows whose
// rhs drifts. Warm resolves must do strictly fewer pivots than cold
// solves of the same sequence in aggregate.
func TestWarmPivotSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	build := func() *Problem {
		p := NewProblem(Maximize)
		f := p.AddVar("f", 1)
		lambdas := make([]Var, 12)
		for i := range lambdas {
			lambdas[i] = p.AddVar(fmt.Sprintf("l%d", i), 0)
		}
		shares := make(map[Var]float64, len(lambdas))
		for _, v := range lambdas {
			shares[v] = 1
		}
		if err := p.AddConstraint("total", shares, LE, 1); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			row := map[Var]float64{f: -1}
			for _, v := range lambdas {
				if rng.Intn(2) == 1 {
					row[v] = float64(6 * (1 + rng.Intn(9)))
				}
			}
			if err := p.AddConstraint(fmt.Sprintf("link%d", r), row, GE, float64(rng.Intn(9))/4); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	p := build()
	w := NewWarmSolver(p)
	if _, err := w.SolveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	warmPivots, coldPivots := 0, 0
	for step := 0; step < 20; step++ {
		k := 1 + rng.Intn(8) // a link row, not the total-share row
		if err := w.SetRHS(k, float64(rng.Intn(13))/4); err != nil {
			t.Fatal(err)
		}
		got, _, err := w.ResolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := cloneProblem(p).SolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertAgrees(t, 0, step, got, want)
		warmPivots += w.LastPivots()
		coldPivots += want.Pivots
	}
	if w.WarmResolves() == 0 {
		t.Fatal("no warm resolves on the availability-shaped sequence")
	}
	if warmPivots >= coldPivots {
		t.Fatalf("warm path saved nothing: %d warm pivots vs %d cold", warmPivots, coldPivots)
	}
	t.Logf("pivots: warm %d vs cold %d over 20 resolves (%d warm)", warmPivots, coldPivots, w.WarmResolves())
}

// TestWarmStructuralGrowthFallsBackCold: adding a variable or a
// constraint after the first solve must not poison the retained
// tableau — the next ResolveContext goes cold and is still correct.
func TestWarmStructuralGrowthFallsBackCold(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 1)
	if err := p.AddConstraint("cap", map[Var]float64{x: 1}, LE, 4); err != nil {
		t.Fatal(err)
	}
	w := NewWarmSolver(p)
	sol, err := w.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-4) > warmTol {
		t.Fatalf("objective %g, want 4", sol.Objective)
	}
	y := p.AddVar("y", 2)
	if err := p.AddConstraint("capY", map[Var]float64{y: 1}, LE, 3); err != nil {
		t.Fatal(err)
	}
	got, warm, err := w.ResolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("resolve after structural growth must run cold")
	}
	if math.Abs(got.Objective-10) > warmTol {
		t.Fatalf("objective %g, want 10", got.Objective)
	}
	// And the fresh tableau warms the step after.
	if err := w.SetRHS(0, 5); err != nil {
		t.Fatal(err)
	}
	got, _, err = w.ResolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Objective-11) > warmTol {
		t.Fatalf("objective %g, want 11", got.Objective)
	}
}

// TestWarmInfeasibleTransitions drives a program across the
// feasible/infeasible boundary in both directions; the warm solver
// must track the status a cold solve reports at every step.
func TestWarmInfeasibleTransitions(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 1)
	if err := p.AddConstraint("cap", map[Var]float64{x: 1}, LE, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint("floor", map[Var]float64{x: 1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	w := NewWarmSolver(p)
	if _, err := w.SolveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for step, tc := range []struct {
		rhs  float64 // new floor
		want Status
	}{
		{3, Infeasible}, // floor above cap
		{1.5, Optimal},  // back inside
		{2.5, Infeasible},
		{0, Optimal},
	} {
		if err := w.SetRHS(1, tc.rhs); err != nil {
			t.Fatal(err)
		}
		got, _, err := w.ResolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != tc.want {
			t.Fatalf("step %d (floor=%g): status %v, want %v", step, tc.rhs, got.Status, tc.want)
		}
		want, err := cloneProblem(p).SolveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertAgrees(t, 0, step, got, want)
	}
}

// armedWarm returns a solver holding an optimal tableau of a random
// program: after its cold solve and, on odd trials, after one warm
// resolve of a bound change too, so the shortcut is exercised from both
// kinds of optimum. It returns nil when the program has no optimum.
func armedWarm(t *testing.T, rng *rand.Rand, trial int) *WarmSolver {
	t.Helper()
	w := NewWarmSolver(randomWarmLP(rng))
	if _, err := w.SolveContext(context.Background()); err != nil {
		t.Fatalf("trial %d: cold solve: %v", trial, err)
	}
	if trial%2 == 1 && w.tab != nil {
		if err := w.SetRHS(rng.Intn(w.p.NumConstraints()), dyadic(rng)+2); err != nil {
			t.Fatalf("trial %d: SetRHS: %v", trial, err)
		}
		if _, _, err := w.ResolveContext(context.Background()); err != nil {
			t.Fatalf("trial %d: resolve: %v", trial, err)
		}
	}
	if w.tab == nil {
		return nil
	}
	return w
}

// armed reports whether the next ResolveContext takes the unchanged-resolve
// shortcut.
func (w *WarmSolver) armed() bool {
	return w.tab != nil && w.p.mutations == w.solvedAt && w.tab.settled()
}

func sameBits(a, b *Solution) bool {
	if a.Status != b.Status || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestWarmUnchangedResolveShortcut: a ResolveContext with nothing changed
// since the last optimum returns exactly what the full warm path (dual
// loop plus primal cleanup) returns on that tableau — X and Objective
// bit for bit at 0 pivots — and is accounted as a warm resolve: warm
// flag, LastWarm, WarmResolves and an lp_warm stage with 0 pivots.
func TestWarmUnchangedResolveShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	shortcuts := 0
	for trial := 0; trial < 120; trial++ {
		w := armedWarm(t, rng, trial)
		if w == nil || !w.armed() {
			continue
		}
		full, ok, err := w.tab.dualResolve(w.p, nil, false)
		if err != nil || !ok || full.Pivots != 0 {
			t.Fatalf("trial %d: forced dualResolve: ok=%v err=%v pivots=%v", trial, ok, err, full)
		}
		before := w.WarmResolves()
		span := obs.NewSpan("shortcut")
		got, warm, err := w.ResolveContext(obs.WithSpan(context.Background(), span))
		if err != nil {
			t.Fatalf("trial %d: resolve: %v", trial, err)
		}
		if !warm || got.Pivots != 0 || !w.LastWarm() || w.LastPivots() != 0 || w.WarmResolves() != before+1 {
			t.Fatalf("trial %d: warm=%v pivots=%d LastWarm=%v LastPivots=%d WarmResolves %d -> %d",
				trial, warm, got.Pivots, w.LastWarm(), w.LastPivots(), before, w.WarmResolves())
		}
		if !sameBits(got, full) {
			t.Fatalf("trial %d: shortcut %+v, full warm path %+v", trial, got, full)
		}
		stages := span.Trace().Stages
		if len(stages) != 1 || stages[0].Stage != obs.StageLPWarm || stages[0].Calls != 1 ||
			stages[0].Warm != 1 || stages[0].Pivots != 0 {
			t.Fatalf("trial %d: stages %+v, want one lp_warm call, warm, 0 pivots", trial, stages)
		}
		if !w.armed() {
			t.Fatalf("trial %d: shortcut disarmed itself", trial)
		}
		shortcuts++
	}
	if shortcuts < 20 {
		t.Fatalf("only %d trials reached the shortcut", shortcuts)
	}
}

// TestWarmShortcutInvalidation: every change that can move the optimum
// disarms the shortcut, and the resolve after it still agrees with a
// cold solve; a SetRHS to the current value does not disarm it, and a
// cancelled resolve drops the tableau so the next one runs cold.
func TestWarmShortcutInvalidation(t *testing.T) {
	changes := []struct {
		name   string
		change func(*rand.Rand, *WarmSolver) error
		disarm bool
	}{
		{"SetRHS same value", func(rng *rand.Rand, w *WarmSolver) error {
			k := rng.Intn(w.p.NumConstraints())
			return w.SetRHS(k, w.p.RHS(k))
		}, false},
		{"SetRHS delta", func(rng *rand.Rand, w *WarmSolver) error {
			k := rng.Intn(w.p.NumConstraints())
			return w.SetRHS(k, w.p.RHS(k)+0.5)
		}, true},
		{"SetObjCoef", func(rng *rand.Rand, w *WarmSolver) error {
			return w.p.SetObjCoef(Var(rng.Intn(w.p.NumVars())), dyadic(rng))
		}, true},
		{"AddVar", func(rng *rand.Rand, w *WarmSolver) error {
			w.p.AddVar("extra", dyadic(rng))
			return nil
		}, true},
		{"AddConstraint", func(rng *rand.Rand, w *WarmSolver) error {
			return w.p.AddConstraint("extra", map[Var]float64{0: 1}, LE, 8)
		}, true},
		{"AddOwnedConstraint", func(rng *rand.Rand, w *WarmSolver) error {
			return w.p.AddOwnedConstraint("extra", map[Var]float64{0: 1}, LE, 8)
		}, true},
	}
	for _, c := range changes {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(152))
			checked := 0
			for trial := 0; trial < 60; trial++ {
				w := armedWarm(t, rng, trial)
				if w == nil || !w.armed() {
					continue
				}
				if err := c.change(rng, w); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if w.armed() == c.disarm {
					t.Fatalf("trial %d: armed=%v after the change, want %v", trial, w.armed(), !c.disarm)
				}
				got, _, err := w.ResolveContext(context.Background())
				if err != nil {
					t.Fatalf("trial %d: resolve: %v", trial, err)
				}
				want, err := cloneProblem(w.p).SolveContext(context.Background())
				if err != nil {
					t.Fatalf("trial %d: reference solve: %v", trial, err)
				}
				assertAgrees(t, trial, 0, got, want)
				checked++
			}
			if checked < 20 {
				t.Fatalf("only %d trials checked", checked)
			}
		})
	}
	t.Run("cancelled resolve", func(t *testing.T) {
		rng := rand.New(rand.NewSource(153))
		checked := 0
		for trial := 0; trial < 60; trial++ {
			w := armedWarm(t, rng, trial)
			if w == nil || !w.armed() {
				continue
			}
			ctx, cancelFn := context.WithCancel(context.Background())
			cancelFn()
			if _, _, err := w.ResolveContext(ctx); !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("trial %d: cancelled resolve returned %v", trial, err)
			}
			if w.armed() {
				t.Fatalf("trial %d: shortcut still armed after a cancelled resolve", trial)
			}
			if _, warm, err := w.ResolveContext(context.Background()); err != nil || warm {
				t.Fatalf("trial %d: resolve after cancellation: warm=%v err=%v, want a cold solve", trial, warm, err)
			}
			checked++
		}
		if checked < 20 {
			t.Fatalf("only %d trials checked", checked)
		}
	})
}
