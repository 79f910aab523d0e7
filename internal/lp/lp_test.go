package lp

import (
	"math"
	"testing"

	"dsmec/internal/rng"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve() error: %v", err)
	}
	if s.Status != Optimal {
		t.Fatalf("Status = %v, want optimal", s.Status)
	}
	return s
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSenseAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("sense strings wrong")
	}
	if Sense(9).String() != "Sense(9)" {
		t.Error("unknown sense string wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status string wrong")
	}
}

func TestSimpleMaximization(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6  ->  min -(x+y), optimum at (1.6, 1.2).
	p := &Problem{
		Minimize: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 2}, Sense: LE, RHS: 4},
			{Coeffs: []float64{3, 1}, Sense: LE, RHS: 6},
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, -2.8) {
		t.Errorf("objective = %g, want -2.8", s.Objective)
	}
	if !almostEqual(s.X[0], 1.6) || !almostEqual(s.X[1], 1.2) {
		t.Errorf("x = %v, want [1.6 1.2]", s.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x+2y s.t. x+y=3, x<=2 -> x=2, y=1, obj=4.
	p := &Problem{
		Minimize: []float64{1, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 3},
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 2},
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, 4) {
		t.Errorf("objective = %g, want 4", s.Objective)
	}
	if !almostEqual(s.X[0], 2) || !almostEqual(s.X[1], 1) {
		t.Errorf("x = %v, want [2 1]", s.X)
	}
}

func TestGEConstraint(t *testing.T) {
	// min 2x+3y s.t. x+y>=4, x>=1 -> x=4,y=0 obj=8? Check: obj coeff of x
	// smaller, so push all onto x: x=4, y=0, obj 8.
	p := &Problem{
		Minimize: []float64{2, 3},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: GE, RHS: 4},
			{Coeffs: []float64{1, 0}, Sense: GE, RHS: 1},
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, 8) {
		t.Errorf("objective = %g, want 8", s.Objective)
	}
}

func TestUpperBounds(t *testing.T) {
	// max x+y with x<=3 (bound), y<=2 (bound) -> obj -5 at (3,2).
	p := &Problem{
		Minimize: []float64{-1, -1},
		Upper:    []float64{3, 2},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, -5) {
		t.Errorf("objective = %g, want -5", s.Objective)
	}
	if !almostEqual(s.X[0], 3) || !almostEqual(s.X[1], 2) {
		t.Errorf("x = %v, want [3 2]", s.X)
	}
}

func TestInfiniteUpperBoundsSkipped(t *testing.T) {
	// x unbounded above but constrained by a row; y bounded at 1.
	p := &Problem{
		Minimize: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 7},
		},
		Upper: []float64{math.Inf(1), 1},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, -8) {
		t.Errorf("objective = %g, want -8", s.Objective)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x s.t. -x <= -2  (i.e. x >= 2) -> x=2.
	p := &Problem{
		Minimize: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Sense: LE, RHS: -2},
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.X[0], 2) {
		t.Errorf("x = %v, want [2]", s.X)
	}

	// min x s.t. -x >= -5 (i.e. x <= 5), maximize instead: min -x -> x=5.
	p2 := &Problem{
		Minimize: []float64{-1},
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Sense: GE, RHS: -5},
		},
	}
	s2 := solveOK(t, p2)
	if !almostEqual(s2.X[0], 5) {
		t.Errorf("x = %v, want [5]", s2.X)
	}

	// Equality with negative RHS: x - y = -3, min x+y -> x=0, y=3.
	p3 := &Problem{
		Minimize: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, -1}, Sense: EQ, RHS: -3},
		},
	}
	s3 := solveOK(t, p3)
	if !almostEqual(s3.X[0], 0) || !almostEqual(s3.X[1], 3) {
		t.Errorf("x = %v, want [0 3]", s3.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		Minimize: []float64{1},
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Sense: GE, RHS: 2},
			{Coeffs: []float64{1}, Sense: LE, RHS: 1},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("Status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	// x + y = 5 with x,y <= 1 is infeasible.
	p := &Problem{
		Minimize: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 5},
		},
		Upper: []float64{1, 1},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("Status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		Minimize: []float64{-1, 0},
		Constraints: []Constraint{
			{Coeffs: []float64{0, 1}, Sense: LE, RHS: 1},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("Status = %v, want unbounded", s.Status)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equality rows exercise the redundant-row handling after
	// phase 1.
	p := &Problem{
		Minimize: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
			{Coeffs: []float64{1, 1}, Sense: EQ, RHS: 2},
			{Coeffs: []float64{2, 2}, Sense: EQ, RHS: 4},
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, 2) {
		t.Errorf("objective = %g, want 2", s.Objective)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate vertex: multiple constraints meet at the optimum.
	p := &Problem{
		Minimize: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 1},
			{Coeffs: []float64{0, 1}, Sense: LE, RHS: 1},
			{Coeffs: []float64{1, 1}, Sense: LE, RHS: 2},
			{Coeffs: []float64{1, 1}, Sense: LE, RHS: 2}, // duplicate active
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, -2) {
		t.Errorf("objective = %g, want -2", s.Objective)
	}
}

func TestZeroRHSDegeneracy(t *testing.T) {
	// Start degenerate: x <= 0 forces x = 0.
	p := &Problem{
		Minimize: []float64{-1, -2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 0}, Sense: LE, RHS: 0},
			{Coeffs: []float64{1, 1}, Sense: LE, RHS: 3},
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.Objective, -6) {
		t.Errorf("objective = %g, want -6 (x=0, y=3)", s.Objective)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		p    *Problem
	}{
		{"no variables", &Problem{}},
		{"wrong constraint width", &Problem{
			Minimize:    []float64{1, 2},
			Constraints: []Constraint{{Coeffs: []float64{1}, Sense: LE, RHS: 1}},
		}},
		{"bad sense", &Problem{
			Minimize:    []float64{1},
			Constraints: []Constraint{{Coeffs: []float64{1}, Sense: 0, RHS: 1}},
		}},
		{"nan rhs", &Problem{
			Minimize:    []float64{1},
			Constraints: []Constraint{{Coeffs: []float64{1}, Sense: LE, RHS: math.NaN()}},
		}},
		{"inf coefficient", &Problem{
			Minimize:    []float64{1},
			Constraints: []Constraint{{Coeffs: []float64{math.Inf(1)}, Sense: LE, RHS: 1}},
		}},
		{"wrong bound width", &Problem{Minimize: []float64{1, 2}, Upper: []float64{1}}},
		{"negative bound", &Problem{Minimize: []float64{1}, Upper: []float64{-1}}},
		{"nan objective", &Problem{Minimize: []float64{math.NaN()}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Solve(tt.p); err == nil {
				t.Error("Solve() = nil error, want validation error")
			}
		})
	}
}

func TestAssignmentShapedLP(t *testing.T) {
	// A miniature of the paper's P2: 2 tasks × 3 subsystems. Each task
	// must pick exactly one subsystem (fractionally); a capacity row
	// limits subsystem 1 usage. Energies favour subsystem 1.
	//
	// Variables: x[t*3+l] for task t, level l.
	e := []float64{1, 5, 9 /* task 0 */, 2, 4, 8 /* task 1 */}
	p := &Problem{
		Minimize: e,
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 1, 0, 0, 0}, Sense: EQ, RHS: 1},
			{Coeffs: []float64{0, 0, 0, 1, 1, 1}, Sense: EQ, RHS: 1},
			// Capacity: both tasks demand 2 units on level 1, cap 3.
			{Coeffs: []float64{2, 0, 0, 2, 0, 0}, Sense: LE, RHS: 3},
		},
		Upper: []float64{1, 1, 1, 1, 1, 1},
	}
	s := solveOK(t, p)
	// Optimal: put as much as possible on level 1. Task 1 gains more from
	// level 1 (saves 2/unit vs task 0's 4/unit? task0 saves 5-1=4, task1
	// saves 4-2=2 per unit of level-1). So task 0 fully local (uses 2 cap),
	// task 1 gets 0.5 local + 0.5 station: obj = 1 + 0.5·2 + 0.5·4 = 4.
	if !almostEqual(s.Objective, 4) {
		t.Errorf("objective = %g, want 4", s.Objective)
	}
	// Row sums remain 1.
	if !almostEqual(s.X[0]+s.X[1]+s.X[2], 1) || !almostEqual(s.X[3]+s.X[4]+s.X[5], 1) {
		t.Errorf("assignment rows must sum to 1: %v", s.X)
	}
}

// feasible reports whether x satisfies p within tolerance.
func feasible(p *Problem, x []float64) bool {
	for j, v := range x {
		if v < -1e-6 {
			return false
		}
		if p.Upper != nil && v > p.Upper[j]+1e-6 {
			return false
		}
	}
	for _, c := range p.Constraints {
		dot := c.Dot(x)
		switch c.Sense {
		case LE:
			if dot > c.RHS+1e-6 {
				return false
			}
		case GE:
			if dot < c.RHS-1e-6 {
				return false
			}
		case EQ:
			if math.Abs(dot-c.RHS) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// plane is one hyperplane of the brute-force vertex enumeration.
type plane struct {
	coeffs []float64
	rhs    float64
}

// bruteForceOptimal enumerates all vertices of a fully box-bounded LP by
// activating every n-subset of the constraint/bound hyperplanes and returns
// the best feasible objective, or +Inf if none is feasible.
func bruteForceOptimal(p *Problem) float64 {
	n := p.NumVars()
	var planes []plane
	for _, c := range p.Constraints {
		planes = append(planes, plane{c.Coeffs, c.RHS})
	}
	for j := 0; j < n; j++ {
		lo := make([]float64, n)
		lo[j] = 1
		planes = append(planes, plane{lo, 0})
		if p.Upper != nil && !math.IsInf(p.Upper[j], 1) {
			hi := make([]float64, n)
			hi[j] = 1
			planes = append(planes, plane{hi, p.Upper[j]})
		}
	}

	best := math.Inf(1)
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(planes, idx, n)
			if ok && feasible(p, x) {
				obj := 0.0
				for j := range x {
					obj += p.Minimize[j] * x[j]
				}
				if obj < best {
					best = obj
				}
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

// solveSquare solves the n×n system given by the selected planes using
// Gaussian elimination with partial pivoting.
func solveSquare(planes []plane, idx []int, n int) ([]float64, bool) {
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		copy(a[i], planes[idx[i]].coeffs)
		b[i] = planes[idx[i]].rhs
	}
	for col := 0; col < n; col++ {
		piv, pv := -1, 1e-9
		for r := col; r < n; r++ {
			if math.Abs(a[r][col]) > pv {
				pv = math.Abs(a[r][col])
				piv = r
			}
		}
		if piv < 0 {
			return nil, false // singular
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c2 := col; c2 < n; c2++ {
				a[r][c2] -= f * a[col][c2]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[i] / a[i][i]
	}
	return x, true
}

func TestAgainstBruteForceRandom(t *testing.T) {
	// Random small box-bounded LPs: the simplex optimum must match the
	// brute-force vertex enumeration.
	r := rng.NewSource(1234).Stream("lp-fuzz")
	for trial := 0; trial < 300; trial++ {
		n := rng.UniformInt(r, 1, 4)
		m := rng.UniformInt(r, 0, 4)
		p := &Problem{
			Minimize: make([]float64, n),
			Upper:    make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.Minimize[j] = rng.Uniform(r, -5, 5)
			p.Upper[j] = rng.Uniform(r, 0.5, 5)
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), RHS: rng.Uniform(r, -3, 6)}
			for j := 0; j < n; j++ {
				c.Coeffs[j] = rng.Uniform(r, -3, 3)
			}
			switch rng.UniformInt(r, 0, 2) {
			case 0:
				c.Sense = LE
			case 1:
				c.Sense = GE
			default:
				c.Sense = EQ
			}
			p.Constraints = append(p.Constraints, c)
		}

		want := bruteForceOptimal(p)
		s, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: Solve error: %v\nproblem: %+v", trial, err, p)
		}
		if math.IsInf(want, 1) {
			if s.Status == Optimal {
				// Brute force can miss feasible regions whose vertices are
				// nearly singular; accept if the simplex point verifies.
				if !feasible(p, s.X) {
					t.Fatalf("trial %d: simplex claims optimal with infeasible point %v", trial, s.X)
				}
				continue
			}
			if s.Status != Infeasible {
				t.Fatalf("trial %d: Status = %v, want infeasible", trial, s.Status)
			}
			continue
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: Status = %v, want optimal (brute force found %g)\nproblem: %+v",
				trial, s.Status, want, p)
		}
		if !feasible(p, s.X) {
			t.Fatalf("trial %d: solution %v violates constraints", trial, s.X)
		}
		if math.Abs(s.Objective-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %g, brute force %g\nx=%v\nproblem: %+v",
				trial, s.Objective, want, s.X, p)
		}
	}
}

func TestSolutionAlwaysFeasibleRandomBig(t *testing.T) {
	// Larger random LPs (beyond brute-force reach): verify feasibility and
	// that the reported objective matches c·x.
	r := rng.NewSource(99).Stream("lp-big")
	for trial := 0; trial < 50; trial++ {
		n := rng.UniformInt(r, 5, 30)
		m := rng.UniformInt(r, 1, 15)
		p := &Problem{Minimize: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Minimize[j] = rng.Uniform(r, -2, 2)
			p.Upper[j] = rng.Uniform(r, 0.1, 4)
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Sense: LE, RHS: rng.Uniform(r, 1, 10)}
			for j := 0; j < n; j++ {
				c.Coeffs[j] = rng.Uniform(r, 0, 2) // non-negative LE rows with positive RHS stay feasible
			}
			p.Constraints = append(p.Constraints, c)
		}
		s, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: Status = %v, want optimal (origin is feasible)", trial, s.Status)
		}
		if !feasible(p, s.X) {
			t.Fatalf("trial %d: infeasible solution", trial)
		}
		dot := 0.0
		for j := range s.X {
			dot += p.Minimize[j] * s.X[j]
		}
		if math.Abs(dot-s.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective mismatch: reported %g, c·x=%g", trial, s.Objective, dot)
		}
		// Sanity: objective can never beat the bound-relaxed minimum
		// sum_j min(0, c_j)·u_j.
		lb := 0.0
		for j := range p.Minimize {
			if p.Minimize[j] < 0 {
				lb += p.Minimize[j] * p.Upper[j]
			}
		}
		if s.Objective < lb-1e-6 {
			t.Fatalf("trial %d: objective %g below lower bound %g", trial, s.Objective, lb)
		}
	}
}

func TestIterationsReported(t *testing.T) {
	p := &Problem{
		Minimize: []float64{-1, -1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 2}, Sense: LE, RHS: 4},
			{Coeffs: []float64{3, 1}, Sense: LE, RHS: 6},
		},
	}
	s := solveOK(t, p)
	if s.Iterations <= 0 {
		t.Error("Iterations should be positive for a non-trivial solve")
	}
}

func TestNativeBoundsMatchExplicitRows(t *testing.T) {
	// The bounded-variable simplex must agree with the same problem posed
	// with explicit x_j <= u_j rows and infinite native bounds.
	r := rng.NewSource(321).Stream("lp-bounds")
	for trial := 0; trial < 200; trial++ {
		n := rng.UniformInt(r, 1, 5)
		m := rng.UniformInt(r, 0, 4)
		bounds := make([]float64, n)
		obj := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = rng.Uniform(r, -5, 5)
			bounds[j] = rng.Uniform(r, 0.5, 5)
		}
		var cons []Constraint
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), RHS: rng.Uniform(r, -3, 6)}
			for j := 0; j < n; j++ {
				c.Coeffs[j] = rng.Uniform(r, -3, 3)
			}
			switch rng.UniformInt(r, 0, 2) {
			case 0:
				c.Sense = LE
			case 1:
				c.Sense = GE
			default:
				c.Sense = EQ
			}
			cons = append(cons, c)
		}

		native := &Problem{Minimize: obj, Constraints: cons, Upper: bounds}

		inf := make([]float64, n)
		rows := make([]Constraint, len(cons))
		copy(rows, cons)
		for j := 0; j < n; j++ {
			inf[j] = math.Inf(1)
			coef := make([]float64, n)
			coef[j] = 1
			rows = append(rows, Constraint{Coeffs: coef, Sense: LE, RHS: bounds[j]})
		}
		explicit := &Problem{Minimize: obj, Constraints: rows, Upper: inf}

		sn, err := Solve(native)
		if err != nil {
			t.Fatalf("trial %d native: %v", trial, err)
		}
		se, err := Solve(explicit)
		if err != nil {
			t.Fatalf("trial %d explicit: %v", trial, err)
		}
		if sn.Status != se.Status {
			t.Fatalf("trial %d: status native %v != explicit %v", trial, sn.Status, se.Status)
		}
		if sn.Status == Optimal &&
			math.Abs(sn.Objective-se.Objective) > 1e-5*(1+math.Abs(se.Objective)) {
			t.Fatalf("trial %d: objective native %g != explicit %g", trial, sn.Objective, se.Objective)
		}
	}
}
