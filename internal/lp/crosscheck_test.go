package lp

import (
	"math"
	"testing"

	"dsmec/internal/rng"
)

// relClose reports whether two objectives agree within 1e-9 relative.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// TestCrossCheckCorpus solves every fixed problem from the basic test
// suite, plus degenerate, cycling, and tight-bound stress cases, and
// checks each against its known status and optimal objective.
func TestCrossCheckCorpus(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		status Status
		obj    float64
		p      *Problem
	}{
		{"simple maximization", Optimal, -2.8, &Problem{
			Minimize: []float64{-1, -1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 2}, Sense: LE, RHS: 4},
				{Coeffs: []float64{3, 1}, Sense: LE, RHS: 6},
			},
		}},
		{"equality constraint", Optimal, 4, &Problem{
			Minimize: []float64{1, 2},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 3},
				{Coeffs: []float64{1, 0}, Sense: LE, RHS: 2},
			},
		}},
		{"ge constraint", Optimal, 8, &Problem{
			Minimize: []float64{2, 3},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1}, Sense: GE, RHS: 4},
				{Coeffs: []float64{1, 0}, Sense: GE, RHS: 1},
			},
		}},
		{"pure upper bounds", Optimal, -5, &Problem{
			Minimize: []float64{-1, -1},
			Upper:    []float64{3, 2},
		}},
		{"mixed infinite bounds", Optimal, -8, &Problem{
			Minimize: []float64{-1, -1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Sense: LE, RHS: 7},
			},
			Upper: []float64{inf, 1},
		}},
		{"negative rhs le", Optimal, 2, &Problem{
			Minimize: []float64{1},
			Constraints: []Constraint{
				{Coeffs: []float64{-1}, Sense: LE, RHS: -2},
			},
		}},
		{"negative rhs ge", Optimal, -5, &Problem{
			Minimize: []float64{-1},
			Constraints: []Constraint{
				{Coeffs: []float64{-1}, Sense: GE, RHS: -5},
			},
		}},
		{"negative rhs eq", Optimal, 3, &Problem{
			Minimize: []float64{1, 1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, -1}, Sense: EQ, RHS: -3},
			},
		}},
		{"infeasible rows", Infeasible, 0, &Problem{
			Minimize: []float64{1},
			Constraints: []Constraint{
				{Coeffs: []float64{1}, Sense: GE, RHS: 2},
				{Coeffs: []float64{1}, Sense: LE, RHS: 1},
			},
		}},
		{"infeasible equality vs bounds", Infeasible, 0, &Problem{
			Minimize: []float64{1, 1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 5},
			},
			Upper: []float64{1, 1},
		}},
		{"unbounded", Unbounded, 0, &Problem{
			Minimize: []float64{-1, 0},
			Constraints: []Constraint{
				{Coeffs: []float64{0, 1}, Sense: LE, RHS: 1},
			},
		}},
		{"redundant equalities", Optimal, 2, &Problem{
			Minimize: []float64{1, 1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
				{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
				{Coeffs: []float64{2, 2}, Sense: EQ, RHS: 4},
			},
		}},
		{"degenerate vertex", Optimal, -2, &Problem{
			Minimize: []float64{-1, -1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Sense: LE, RHS: 1},
				{Coeffs: []float64{0, 1}, Sense: LE, RHS: 1},
				{Coeffs: []float64{1, 1}, Sense: LE, RHS: 2},
				{Coeffs: []float64{1, 1}, Sense: LE, RHS: 2},
			},
		}},
		{"zero rhs degeneracy", Optimal, -6, &Problem{
			Minimize: []float64{-1, -2},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 0}, Sense: LE, RHS: 0},
				{Coeffs: []float64{1, 1}, Sense: LE, RHS: 3},
			},
		}},
		// Beale's classic cycling example: Dantzig pricing with naive
		// tie-breaking cycles forever; the simplex must escape via its
		// Bland's-rule escalation and reach the optimum −0.05.
		{"beale cycling", Optimal, -0.05, &Problem{
			Minimize: []float64{-0.75, 150, -0.02, 6},
			Constraints: []Constraint{
				{Coeffs: []float64{0.25, -60, -0.04, 9}, Sense: LE, RHS: 0},
				{Coeffs: []float64{0.5, -90, -0.02, 3}, Sense: LE, RHS: 0},
				{Coeffs: []float64{0, 0, 1, 0}, Sense: LE, RHS: 1},
			},
		}},
		// Zero-width bounds pin variables at 0 while they still appear in
		// rows.
		{"tight zero bounds", Optimal, -1, &Problem{
			Minimize: []float64{-5, -1, -1},
			Upper:    []float64{0, 1, 0},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1, 1}, Sense: LE, RHS: 2},
				{Coeffs: []float64{1, 0, 1}, Sense: GE, RHS: 0},
			},
		}},
		{"bound flip heavy", Optimal, -5, &Problem{
			Minimize: []float64{-3, -2, -1, -4},
			Upper:    []float64{0.5, 0.5, 0.5, 0.5},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1, 1, 1}, Sense: LE, RHS: 10},
			},
		}},
		{"sparse rows", Optimal, -4.5, &Problem{
			Minimize: []float64{1, -2, 3, -1, 0},
			Upper:    []float64{2, 2, 2, 2, 2},
			Constraints: []Constraint{
				Sparse([]int{0, 2}, []float64{1, 1}, LE, 3),
				Sparse([]int{1, 3}, []float64{1, 1}, LE, 2.5),
				Sparse([]int{0, 1, 4}, []float64{1, -1, 2}, GE, -1),
			},
		}},
		{"mixed sparse dense rows", Optimal, -3.5, &Problem{
			Minimize: []float64{-1, -1, -1},
			Constraints: []Constraint{
				{Coeffs: []float64{1, 1, 0}, Sense: LE, RHS: 2},
				Sparse([]int{2}, []float64{1}, LE, 1.5),
				Sparse([]int{0, 2}, []float64{1, 1}, LE, 2),
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Solve(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if s.Status != tc.status {
				t.Fatalf("status %v, want %v", s.Status, tc.status)
			}
			if s.Status != Optimal {
				return
			}
			if !relClose(s.Objective, tc.obj) {
				t.Fatalf("objective %.12g, want %.12g", s.Objective, tc.obj)
			}
			if !feasible(tc.p, s.X) {
				t.Fatalf("infeasible point %v", s.X)
			}
		})
	}
}

// permuted returns p, whose rows must be dense, with its variables and
// its rows in reverse order: the same LP, which Dantzig pricing and the
// lowest-index tie rules walk along a different pivot path.
func permuted(p *Problem) *Problem {
	n := p.NumVars()
	q := &Problem{Minimize: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		q.Minimize[n-1-j] = p.Minimize[j]
		q.Upper[n-1-j] = p.Upper[j]
	}
	for i := len(p.Constraints) - 1; i >= 0; i-- {
		c := p.Constraints[i]
		coeffs := make([]float64, n)
		for j, a := range c.Coeffs {
			coeffs[n-1-j] = a
		}
		q.Constraints = append(q.Constraints, Constraint{Coeffs: coeffs, Sense: c.Sense, RHS: c.RHS})
	}
	return q
}

// TestCrossCheckRandom solves small random problems with mixed senses,
// signs, sparse rows, and infinite and zero-width bounds, and checks each
// against the same problem with variables and rows reversed (same status,
// objectives within 1e-9 relative, feasible points) and, where the
// vertex enumeration is cheap, against brute force.
func TestCrossCheckRandom(t *testing.T) {
	r := rng.NewSource(4321).Stream("lp-crosscheck")
	for trial := 0; trial < 250; trial++ {
		n := rng.UniformInt(r, 1, 6)
		m := rng.UniformInt(r, 0, 6)
		p := &Problem{
			Minimize: make([]float64, n),
			Upper:    make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.Minimize[j] = rng.Uniform(r, -5, 5)
			if rng.UniformInt(r, 0, 4) == 0 {
				p.Upper[j] = math.Inf(1)
			} else {
				p.Upper[j] = rng.Uniform(r, 0, 5) // zero-width bounds included
			}
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), RHS: rng.Uniform(r, -3, 6)}
			for j := 0; j < n; j++ {
				if rng.UniformInt(r, 0, 3) == 0 {
					continue // keep some sparsity
				}
				c.Coeffs[j] = rng.Uniform(r, -3, 3)
			}
			switch rng.UniformInt(r, 0, 3) {
			case 0:
				c.Sense = LE
			case 1:
				c.Sense = GE
			default:
				c.Sense = EQ
			}
			p.Constraints = append(p.Constraints, c)
		}

		s, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q, err := Solve(permuted(p))
		if err != nil {
			t.Fatalf("trial %d permuted: %v", trial, err)
		}
		if s.Status != q.Status {
			t.Fatalf("trial %d: status %v, permuted %v", trial, s.Status, q.Status)
		}
		if s.Status == Optimal {
			if !relClose(s.Objective, q.Objective) {
				t.Fatalf("trial %d: objective %.12g, permuted %.12g", trial, s.Objective, q.Objective)
			}
			if !feasible(p, s.X) {
				t.Fatalf("trial %d: infeasible point %v", trial, s.X)
			}
		}
		if n > 4 {
			continue
		}
		// Every vertex of {x ≥ 0} ∩ rows is enumerable; a bounded
		// optimum sits on one.
		want := bruteForceOptimal(p)
		switch s.Status {
		case Optimal:
			if math.Abs(s.Objective-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("trial %d: objective %g, brute force %g", trial, s.Objective, want)
			}
		case Infeasible:
			if !math.IsInf(want, 1) {
				t.Fatalf("trial %d: infeasible, but brute force found objective %g", trial, want)
			}
		case Unbounded:
			if math.IsInf(want, 1) {
				t.Fatalf("trial %d: unbounded, but brute force found no feasible vertex", trial)
			}
		}
	}
}
