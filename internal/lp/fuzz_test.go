package lp

import (
	"context"
	"math"
	"testing"
)

// FuzzSimplex feeds the two-phase simplex random small LPs decoded from
// raw bytes and asserts the solver's safety contract: it terminates
// without an internal error, and any solution it reports Optimal is
// primal-feasible — every constraint satisfied within feasTol-scale
// slack, all variables non-negative, objective equal to c·x.
//
// Coefficients are dyadic rationals (int8/8), which makes degenerate
// ties and exactly-zero pivots common — the regime the two-pass ratio
// test and Bland fallback exist for.
func FuzzSimplex(f *testing.F) {
	f.Add([]byte{2, 3, 1, 8, 16, 24, 0, 40, 1, 2, 3, 100, 1, 80, 2, 8, 8})
	f.Add([]byte{1, 1, 0, 248, 1, 8, 200})               // minimize -x st x <= trouble
	f.Add([]byte{3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // all-zero degenerate
	f.Add([]byte{2, 2, 0, 8, 8, 1, 8, 248, 0, 2, 248, 8, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeProblem(data)
		if !ok {
			return
		}
		sol, err := p.SolveContext(context.Background())
		if err != nil {
			// Malformed inputs are screened out by the decoder, so the
			// only sanctioned error is the pivot-limit bailout.
			t.Fatalf("solve failed: %v", err)
		}
		if sol.Status != Optimal {
			return
		}
		checkPrimalFeasible(t, p, sol)
	})
}

// decodeProblem builds an LP with up to 6 variables and 6 constraints
// from the fuzz payload. Returns ok=false when the payload is too
// short to name a shape.
func decodeProblem(data []byte) (*Problem, bool) {
	if len(data) < 3 {
		return nil, false
	}
	nVars := 1 + int(data[0])%6
	nCons := int(data[1]) % 7
	sense := Minimize
	if data[2]%2 == 1 {
		sense = Maximize
	}
	next := 3
	byteAt := func() byte {
		if next >= len(data) {
			return 0
		}
		b := data[next]
		next++
		return b
	}
	// Dyadic coefficients in [-16, 15.875]: exact in float64, tie-rich.
	coefAt := func() float64 { return float64(int8(byteAt())) / 8 }

	p := NewProblem(sense)
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = p.AddVar("x", coefAt())
	}
	for c := 0; c < nCons; c++ {
		rel := []Rel{LE, GE, EQ}[byteAt()%3]
		coefs := make(map[Var]float64, nVars)
		for _, v := range vars {
			coefs[v] = coefAt()
		}
		rhs := coefAt()
		if err := p.AddConstraint("c", coefs, rel, rhs); err != nil {
			return nil, false
		}
	}
	return p, true
}

// checkPrimalFeasible verifies a reported optimum against the problem
// it came from.
func checkPrimalFeasible(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	const slack = 1e-6
	if len(sol.X) != p.NumVars() {
		t.Fatalf("solution has %d values for %d variables", len(sol.X), p.NumVars())
	}
	for i, x := range sol.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("x[%d] = %g is not finite", i, x)
		}
		if x < -slack {
			t.Fatalf("x[%d] = %g violates non-negativity", i, x)
		}
	}
	obj := 0.0
	for i, x := range sol.X {
		obj += p.obj[i] * x
	}
	scale := 1.0 + math.Abs(sol.Objective)
	if math.Abs(obj-sol.Objective) > slack*scale {
		t.Fatalf("objective %g does not match c.x = %g", sol.Objective, obj)
	}
	for _, c := range p.cons {
		lhs := 0.0
		for v, coef := range c.coefs {
			lhs += coef * sol.X[v]
		}
		rowScale := 1.0 + math.Abs(c.rhs)
		switch c.rel {
		case LE:
			if lhs > c.rhs+slack*rowScale {
				t.Fatalf("constraint violated: %g <= %g", lhs, c.rhs)
			}
		case GE:
			if lhs < c.rhs-slack*rowScale {
				t.Fatalf("constraint violated: %g >= %g", lhs, c.rhs)
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > slack*rowScale {
				t.Fatalf("constraint violated: %g = %g", lhs, c.rhs)
			}
		}
	}
}
