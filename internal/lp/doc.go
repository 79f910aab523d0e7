// Package lp is a self-contained dense linear-programming solver, kept as
// the reference that the structured cluster solver in internal/core is
// tested against (FuzzClusterRelaxation, TestLPHTAStructuredMatchesSimplex).
// No production path runs it.
//
// It solves problems of the form
//
//	minimize    c·x
//	subject to  a_i·x {≤,≥,=} b_i     for every constraint i
//	            0 ≤ x_j ≤ u_j         (u_j may be +∞)
//
// using the two-phase primal simplex method on a dense tableau, with
// Dantzig pricing and an automatic switch to Bland's rule after a run of
// degenerate pivots, which guarantees termination. It is independent of
// the structured solver: it knows nothing of P2's shape, so agreement
// between the two checks both.
package lp
