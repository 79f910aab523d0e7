package lp

import "fmt"

// Method selects which simplex implementation Solve runs.
//
// Both methods implement the same bounded-variable two-phase primal
// simplex semantics (native upper bounds, Dantzig pricing with a Bland
// fallback after degenerate runs) and agree on status and objective; they
// differ in how the basis is represented:
//
//   - MethodRevised (the zero value) keeps only an LU factorization of
//     the m×m basis matrix, updated with product-form eta vectors and
//     refactorized periodically. Iterations price the sparse constraint
//     columns via BTRAN/FTRAN on the factors and never materialize the
//     dense tableau, so a pivot costs O(m + nnz) instead of O(rows×cols).
//   - MethodDense maintains the full dense tableau B⁻¹A. It is retained
//     as the reference oracle: slower on large sparse problems, but the
//     implementation the cross-check suites compare against.
type Method int

// Solve methods.
const (
	MethodRevised Method = iota
	MethodDense
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodRevised:
		return "revised"
	case MethodDense:
		return "dense"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}
