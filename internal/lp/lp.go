package lp

import (
	"errors"
	"fmt"
	"math"

	"dsmec/internal/obs"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // a·x ≤ b
	GE                  // a·x ≥ b
	EQ                  // a·x = b
)

// String renders the sense symbol.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Constraint is one linear constraint a·x (sense) b, in one of two forms:
//
//   - dense: Cols is nil and Coeffs has one entry per variable;
//   - sparse: Cols lists the columns with nonzero coefficients in strictly
//     increasing order and Coeffs holds the matching values.
//
// Sparse rows are lowered into the tableau only at solve time, so building
// a problem costs memory proportional to the nonzero count rather than
// rows × variables. The LP-HTA cluster relaxations have 3-nonzero C4 rows
// and per-device C2 rows, which makes the dense form quadratic in the
// cluster size; use Sparse there.
type Constraint struct {
	Coeffs []float64
	// Cols, when non-nil, selects the sparse form: Coeffs[k] is the
	// coefficient of variable Cols[k]. Must be strictly increasing.
	Cols  []int
	Sense Sense
	RHS   float64
}

// Sparse builds a sparse constraint: coeffs[k] applies to variable
// cols[k], every other coefficient is zero. cols must be strictly
// increasing (Validate enforces this).
func Sparse(cols []int, coeffs []float64, sense Sense, rhs float64) Constraint {
	return Constraint{Cols: cols, Coeffs: coeffs, Sense: sense, RHS: rhs}
}

// Dot returns a·x for either constraint form.
func (c *Constraint) Dot(x []float64) float64 {
	dot := 0.0
	if c.Cols != nil {
		for k, j := range c.Cols {
			dot += c.Coeffs[k] * x[j]
		}
		return dot
	}
	for j, a := range c.Coeffs {
		dot += a * x[j]
	}
	return dot
}

// scatter writes the row's coefficients, scaled by sign, into the dense
// prefix of dst (which must be zeroed).
func (c *Constraint) scatter(dst []float64, sign float64) {
	if c.Cols != nil {
		for k, j := range c.Cols {
			dst[j] = sign * c.Coeffs[k]
		}
		return
	}
	for j, a := range c.Coeffs {
		dst[j] = sign * a
	}
}

// Problem is a linear program in minimization form. All variables have an
// implicit lower bound of zero. Upper, if non-nil, gives per-variable upper
// bounds; use math.Inf(1) for unbounded variables.
type Problem struct {
	Minimize    []float64
	Constraints []Constraint
	Upper       []float64
	// Method selects the simplex implementation; the zero value is
	// MethodRevised.
	Method Method
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Minimize) }

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if n == 0 {
		return errors.New("lp: problem has no variables")
	}
	for i, c := range p.Constraints {
		if c.Cols != nil {
			if len(c.Coeffs) != len(c.Cols) {
				return fmt.Errorf("lp: sparse constraint %d has %d coefficients for %d columns",
					i, len(c.Coeffs), len(c.Cols))
			}
			for k, col := range c.Cols {
				if col < 0 || col >= n {
					return fmt.Errorf("lp: sparse constraint %d references column %d of %d", i, col, n)
				}
				if k > 0 && col <= c.Cols[k-1] {
					return fmt.Errorf("lp: sparse constraint %d columns not strictly increasing at %d", i, k)
				}
			}
		} else if len(c.Coeffs) != n {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), n)
		}
		if c.Sense != LE && c.Sense != GE && c.Sense != EQ {
			return fmt.Errorf("lp: constraint %d has invalid sense %d", i, int(c.Sense))
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite rhs %g", i, c.RHS)
		}
		for j, a := range c.Coeffs {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("lp: constraint %d coefficient %d is non-finite", i, j)
			}
		}
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: %d upper bounds, want %d", len(p.Upper), n)
	}
	for j, u := range p.Upper {
		if math.IsNaN(u) || u < 0 {
			return fmt.Errorf("lp: variable %d has invalid upper bound %g", j, u)
		}
	}
	for j, c := range p.Minimize {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: objective coefficient %d is non-finite", j)
		}
	}
	switch p.Method {
	case MethodRevised, MethodDense:
	default:
		return fmt.Errorf("lp: invalid method %d", int(p.Method))
	}
	return nil
}

// Status reports how a solve ended.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String names the status.
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

// Solution is the result of Solve. X and Objective are meaningful only when
// Status == Optimal.
type Solution struct {
	Status     Status
	X          []float64
	Objective  float64
	Iterations int
	// Method is the simplex implementation that produced the solution.
	Method Method
	// Stats breaks the solve down for observability.
	Stats SolveStats
}

// SolveStats counts what the simplex actually did. The dense tableau
// never refactorizes a basis; the closest analog — full reduced-cost row
// reinstallations (one per phase) — is counted as ObjectiveInstalls.
type SolveStats struct {
	// Pivots counts basis changes (excludes bound flips).
	Pivots int
	// BoundFlips counts nonbasic variables crossing to their other bound
	// without a basis change.
	BoundFlips int
	// DegeneratePivots counts iterations with a ~zero step.
	DegeneratePivots int
	// RatioTestTies counts leaving-row ties within tolerance, where the
	// anti-cycling index rule had to arbitrate.
	RatioTestTies int
	// BlandSwitches counts escalations to Bland's rule after a
	// degenerate run.
	BlandSwitches int
	// ObjectiveInstalls counts reduced-cost row installations.
	ObjectiveInstalls int
	// Refactorizations counts basis LU refactorizations beyond the
	// initial factorization (MethodRevised only; the dense tableau never
	// factorizes a basis).
	Refactorizations int
	// EtaVectors counts product-form basis updates applied between
	// refactorizations (MethodRevised only).
	EtaVectors int
	// Phase1Iterations and Phase2Iterations split Solution.Iterations.
	Phase1Iterations int
	Phase2Iterations int
	// Phase1Seconds and Phase2Seconds are wall-clock phase timings.
	Phase1Seconds float64
	Phase2Seconds float64
}

// ErrIterationLimit is returned when the simplex fails to converge within
// its iteration budget, which indicates a numerically hostile problem.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const (
	// eps is the general feasibility/optimality tolerance.
	eps = 1e-9
	// pivotEps rejects pivots too small to divide by safely.
	pivotEps = 1e-7
)

// Solve solves the problem with the two-phase simplex method. Metrics
// are recorded to the process-wide obs registry when one is installed;
// use SolveObserved to direct them (and trace spans) explicitly.
func Solve(p *Problem) (*Solution, error) {
	return SolveObserved(p, obs.Instruments{})
}

// SolveObserved solves the problem and records counters, timings, and a
// trace span into ins. A zero ins falls back to the process-wide
// registry and disables tracing.
func SolveObserved(p *Problem, ins obs.Instruments) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	method := p.Method
	span := ins.Span.Child("lp.solve")
	log := ins.Logger()
	var (
		sol *Solution
		err error
	)
	if method == MethodDense {
		var t *tableau
		t, err = newTableau(p)
		if err == nil {
			sol, err = t.solve(p, span, log)
		}
	} else {
		sol, err = solveRevised(p, span, log)
	}
	if sol != nil {
		sol.Method = method
	}
	record(ins, span, p, method, sol, err)
	span.End()
	return sol, err
}

// record publishes one solve's outcome. The counter lookups cost a few
// nanoseconds each against a disabled (nil) registry.
func record(ins obs.Instruments, span *obs.Span, p *Problem, method Method, sol *Solution, err error) {
	reg := ins.Registry()
	log := ins.Logger()
	if span != nil {
		span.Annotate("vars", p.NumVars())
		span.Annotate("constraints", len(p.Constraints))
		span.Annotate("method", method.String())
	}
	if reg == nil && span == nil && log == nil {
		return
	}
	reg.Counter("lp.solves").Inc()
	reg.Counter("lp.solves." + method.String()).Inc()
	if err != nil {
		reg.Counter("lp.errors").Inc()
		if span != nil {
			span.Annotate("error", err.Error())
		}
		log.Warn("lp solve failed",
			"method", method.String(),
			"vars", p.NumVars(),
			"constraints", len(p.Constraints),
			"err", err.Error())
		return
	}
	st := sol.Stats
	reg.Counter("lp.pivots").Add(int64(st.Pivots))
	reg.Counter("lp.bound_flips").Add(int64(st.BoundFlips))
	reg.Counter("lp.degenerate_pivots").Add(int64(st.DegeneratePivots))
	reg.Counter("lp.ratio_test_ties").Add(int64(st.RatioTestTies))
	reg.Counter("lp.bland_switches").Add(int64(st.BlandSwitches))
	reg.Counter("lp.objective_installs").Add(int64(st.ObjectiveInstalls))
	reg.Counter("lp.refactorizations").Add(int64(st.Refactorizations))
	reg.Counter("lp.eta_vectors").Add(int64(st.EtaVectors))
	reg.Counter("lp.phase1_iterations").Add(int64(st.Phase1Iterations))
	reg.Counter("lp.phase2_iterations").Add(int64(st.Phase2Iterations))
	switch sol.Status {
	case Infeasible:
		reg.Counter("lp.infeasible").Inc()
	case Unbounded:
		reg.Counter("lp.unbounded").Inc()
	}
	reg.Histogram("lp.solve_seconds", obs.TimeBuckets).Observe(st.Phase1Seconds + st.Phase2Seconds)
	reg.Histogram("lp.pivots_per_solve", obs.CountBuckets).Observe(float64(st.Pivots))
	reg.Histogram("lp.degenerate_pivots_per_solve", obs.CountBuckets).Observe(float64(st.DegeneratePivots))
	if method == MethodRevised {
		reg.Histogram("lp.eta_vectors_per_solve", obs.CountBuckets).Observe(float64(st.EtaVectors))
		// Mean pivots between basis refactorizations this solve (the
		// initial factorization counts as interval zero's start).
		reg.Histogram("lp.refactor_interval_pivots", obs.CountBuckets).
			Observe(float64(st.Pivots) / float64(st.Refactorizations+1))
	}
	if span != nil {
		span.Annotate("status", sol.Status.String())
		span.Annotate("iterations", sol.Iterations)
		span.Annotate("pivots", st.Pivots)
	}
	if log.Enabled(obs.LevelDebug) {
		log.Debug("lp solve done",
			"method", method.String(),
			"status", sol.Status.String(),
			"vars", p.NumVars(),
			"constraints", len(p.Constraints),
			"pivots", st.Pivots,
			"degenerate_pivots", st.DegeneratePivots,
			"refactorizations", st.Refactorizations,
			"seconds", st.Phase1Seconds+st.Phase2Seconds)
	}
}

// varStatus tracks where a nonbasic variable currently sits.
type varStatus uint8

const (
	atLower varStatus = iota // nonbasic at value 0
	atUpper                  // nonbasic at its upper bound
	basic
)

// tableau is the bounded-variable standard form: minimize c·x subject to
// A x = b with 0 ≤ x_j ≤ u_j, b ≥ 0 after normalization. Upper bounds are
// handled natively by the simplex (nonbasic variables may rest at either
// bound), so no extra rows are materialized for them — this keeps the
// LP-HTA relaxations linear in the task count rather than quadratic.
// Columns: structural variables first, then slack/surplus, then
// artificials.
type tableau struct {
	m, n    int // rows, total columns
	nStruct int // structural variable count
	nArt    int // artificial count

	rows   [][]float64 // T = B⁻¹A, maintained by pivoting
	active []bool      // redundant rows discovered in phase 1 are retired

	upper  []float64   // per-column upper bound (+Inf when absent)
	status []varStatus // per-column location
	basis  []int       // basis[i] = column basic in row i
	value  []float64   // value[i] = current value of basis[i]

	obj        []float64 // reduced-cost row
	iterations int
	stats      SolveStats
}

// rowKind is one constraint row after RHS-sign normalization: the
// effective sense, and whether the row was negated to make its RHS ≥ 0.
type rowKind struct {
	sense Sense
	neg   bool
}

// classifyRows normalizes every row to RHS ≥ 0 and counts the slack and
// artificial columns the standard form needs. Shared by the dense tableau
// and the revised simplex so both lower the identical standard form.
func classifyRows(cons []Constraint) (kinds []rowKind, nSlack, nArt int) {
	kinds = make([]rowKind, len(cons))
	for i, c := range cons {
		sense := c.Sense
		neg := c.RHS < 0
		if neg {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		kinds[i] = rowKind{sense: sense, neg: neg}
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	return kinds, nSlack, nArt
}

// newTableau converts p into bounded standard form.
func newTableau(p *Problem) (*tableau, error) {
	n := p.NumVars()
	cons := p.Constraints
	m := len(cons)
	t := &tableau{m: m, nStruct: n}

	kinds, nSlack, nArt := classifyRows(cons)
	t.n = n + nSlack + nArt
	t.nArt = nArt

	t.rows = make([][]float64, m)
	t.active = make([]bool, m)
	t.basis = make([]int, m)
	t.value = make([]float64, m)
	t.upper = make([]float64, t.n)
	t.status = make([]varStatus, t.n)
	for j := range t.upper {
		t.upper[j] = math.Inf(1)
	}
	for j, u := range p.Upper {
		t.upper[j] = u
	}

	slackCol, artCol := n, n+nSlack
	for i, c := range cons {
		row := make([]float64, t.n)
		sign := 1.0
		if kinds[i].neg {
			sign = -1
		}
		c.scatter(row, sign)
		rhs := sign * c.RHS

		switch kinds[i].sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rows[i] = row
		t.active[i] = true
		t.value[i] = rhs
		t.status[t.basis[i]] = basic
	}
	return t, nil
}

// setObjective installs the reduced-cost row for the given costs.
func (t *tableau) setObjective(costs []float64) {
	t.stats.ObjectiveInstalls++
	t.obj = make([]float64, t.n)
	copy(t.obj, costs)
	for i, b := range t.basis {
		if !t.active[i] {
			continue
		}
		cb := costs[b]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < t.n; j++ {
			t.obj[j] -= cb * row[j]
		}
	}
}

// pivot performs a basis change on (row, col), updating T and the
// reduced-cost row. Values are maintained by the caller.
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1

	for i := range t.rows {
		if i == row || !t.active[i] {
			continue
		}
		f := t.rows[i][col]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	if f := t.obj[col]; f != 0 {
		for j := range t.obj {
			t.obj[j] -= f * pr[j]
		}
		t.obj[col] = 0
	}
	t.basis[row] = col
	t.iterations++
	t.stats.Pivots++
}

// errUnbounded signals an unbounded phase-2 objective.
var errUnbounded = errors.New("lp: unbounded")

// runSimplex iterates the bounded-variable simplex until optimality (nil),
// unboundedness (errUnbounded), or the iteration limit. allowed reports
// whether a column may enter the basis (used to bar artificials in
// phase 2).
func (t *tableau) runSimplex(allowed func(col int) bool) error {
	limit := 2000 * (t.m + t.n + 1)
	degenerate := 0
	useBland := false

	for iter := 0; iter < limit; iter++ {
		// Pricing: a variable at lower enters increasing when its reduced
		// cost is negative; one at upper enters decreasing when positive.
		enter := -1
		sigma := 1.0
		if useBland {
			for j := 0; j < t.n; j++ {
				if !allowed(j) || t.status[j] == basic {
					continue
				}
				if t.status[j] == atLower && t.obj[j] < -eps {
					enter, sigma = j, 1
					break
				}
				if t.status[j] == atUpper && t.obj[j] > eps {
					enter, sigma = j, -1
					break
				}
			}
		} else {
			best := eps
			for j := 0; j < t.n; j++ {
				if !allowed(j) || t.status[j] == basic {
					continue
				}
				var viol float64
				if t.status[j] == atLower {
					viol = -t.obj[j]
				} else {
					viol = t.obj[j]
				}
				if viol > best {
					best = viol
					enter = j
					if t.status[j] == atLower {
						sigma = 1
					} else {
						sigma = -1
					}
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}

		// Ratio test: the entering variable moves by step ≥ 0 in
		// direction sigma; basic variable i changes by -sigma·w_i·step.
		step := t.upper[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveAt := atLower
		for i := 0; i < t.m; i++ {
			if !t.active[i] {
				continue
			}
			w := t.rows[i][enter]
			a := sigma * w
			switch {
			case a > pivotEps: // basic value falls toward 0
				s := t.value[i] / a
				if s < step+eps && s >= step-eps && leave >= 0 {
					t.stats.RatioTestTies++
				}
				if s < step-eps ||
					(s < step+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					step, leave, leaveAt = s, i, atLower
				}
			case a < -pivotEps: // basic value rises toward its bound
				ub := t.upper[t.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				s := (ub - t.value[i]) / -a
				if s < step+eps && s >= step-eps && leave >= 0 {
					t.stats.RatioTestTies++
				}
				if s < step-eps ||
					(s < step+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					step, leave, leaveAt = s, i, atUpper
				}
			}
		}
		if math.IsInf(step, 1) {
			return errUnbounded
		}
		if step < 0 {
			step = 0 // numerical guard: never move backwards
		}

		if step < eps {
			degenerate++
			t.stats.DegeneratePivots++
			if degenerate > t.m+t.n {
				if !useBland {
					t.stats.BlandSwitches++
				}
				useBland = true
			}
		} else {
			degenerate = 0
			useBland = false
		}

		if leave < 0 {
			// Bound flip: the entering variable crosses to its other
			// bound without any basis change.
			for i := 0; i < t.m; i++ {
				if t.active[i] {
					t.value[i] -= sigma * t.rows[i][enter] * step
				}
			}
			if t.status[enter] == atLower {
				t.status[enter] = atUpper
			} else {
				t.status[enter] = atLower
			}
			t.iterations++
			t.stats.BoundFlips++
			continue
		}

		// Basis change: update values, then pivot.
		enterValue := 0.0
		if t.status[enter] == atUpper {
			enterValue = t.upper[enter]
		}
		for i := 0; i < t.m; i++ {
			if i == leave || !t.active[i] {
				continue
			}
			t.value[i] -= sigma * t.rows[i][enter] * step
		}
		leaving := t.basis[leave]
		t.status[leaving] = leaveAt
		t.value[leave] = enterValue + sigma*step
		t.status[enter] = basic
		t.pivot(leave, enter)
	}
	return ErrIterationLimit
}

// solve runs the two phases and extracts the solution. span, when
// non-nil, receives one child span per phase; log, when enabled at debug,
// receives one record per phase transition.
func (t *tableau) solve(p *Problem, span *obs.Span, log *obs.Logger) (*Solution, error) {
	allowAll := func(int) bool { return true }
	artStart := t.n - t.nArt

	if t.nArt > 0 {
		p1Span := span.Child("lp.phase1")
		p1Timer := obs.StartTimer()
		phase1 := make([]float64, t.n)
		for j := artStart; j < t.n; j++ {
			phase1[j] = 1
		}
		t.setObjective(phase1)
		err := t.runSimplex(allowAll)
		t.stats.Phase1Iterations = t.iterations
		t.stats.Phase1Seconds = p1Timer.Seconds()
		p1Span.Annotate("iterations", t.iterations)
		p1Span.End()
		if log.Enabled(obs.LevelDebug) {
			log.Debug("lp phase1 done",
				"method", "dense",
				"iterations", t.stats.Phase1Iterations,
				"seconds", t.stats.Phase1Seconds)
		}
		if errors.Is(err, errUnbounded) {
			return nil, errors.New("lp: phase-1 simplex reported unbounded")
		}
		if err != nil {
			return nil, err
		}
		infeas := 0.0
		for i, b := range t.basis {
			if t.active[i] && b >= artStart {
				infeas += t.value[i]
			}
		}
		if infeas > 1e-6 {
			return &Solution{Status: Infeasible, Iterations: t.iterations, Stats: t.stats}, nil
		}
		// Drive surviving artificials out of the basis, or retire their
		// rows as redundant.
		for i := 0; i < t.m; i++ {
			if !t.active[i] || t.basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if t.status[j] != basic && math.Abs(t.rows[i][j]) > pivotEps {
					// Zero-step pivot: the solution is unchanged, so the
					// entering variable keeps its current value (0 at
					// lower, u_j at upper) as its new basic value.
					enterVal := 0.0
					if t.status[j] == atUpper {
						enterVal = t.upper[j]
					}
					t.status[t.basis[i]] = atLower
					t.status[j] = basic
					t.value[i] = enterVal
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				t.active[i] = false
			}
		}
	}

	p2Span := span.Child("lp.phase2")
	p2Timer := obs.StartTimer()
	costs := make([]float64, t.n)
	copy(costs, p.Minimize)
	t.setObjective(costs)
	noArt := func(col int) bool { return col < artStart }
	err := t.runSimplex(noArt)
	t.stats.Phase2Iterations = t.iterations - t.stats.Phase1Iterations
	t.stats.Phase2Seconds = p2Timer.Seconds()
	p2Span.Annotate("iterations", t.stats.Phase2Iterations)
	p2Span.End()
	if log.Enabled(obs.LevelDebug) {
		log.Debug("lp phase2 done",
			"method", "dense",
			"iterations", t.stats.Phase2Iterations,
			"seconds", t.stats.Phase2Seconds)
	}
	if errors.Is(err, errUnbounded) {
		return &Solution{Status: Unbounded, Iterations: t.iterations, Stats: t.stats}, nil
	}
	if err != nil {
		return nil, err
	}

	x := make([]float64, t.nStruct)
	for j := 0; j < t.nStruct; j++ {
		if t.status[j] == atUpper {
			x[j] = t.upper[j]
		}
	}
	for i, b := range t.basis {
		if t.active[i] && b < t.nStruct {
			v := t.value[i]
			if v < 0 && v > -1e-6 {
				v = 0
			}
			x[b] = v
		}
	}
	obj := 0.0
	for j, c := range p.Minimize {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: t.iterations, Stats: t.stats}, nil
}
