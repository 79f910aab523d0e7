// Package cover implements the data-division algorithms of Section IV of
// the paper: partitioning the required data universe D among devices whose
// holdings can serve it.
//
//   - BalancedPartition (Section IV.A): an Optimal Coverage of D with
//     Smallest Set Size — disjoint per-device slices C_i ⊆ UD_i covering D
//     with the largest slice as small as possible. The paper's greedy
//     repeatedly takes the device whose remaining usable set is smallest
//     and assigns all of it; the submodularity argument (Theorem 3) bounds
//     the greedy at 1/(1−e⁻¹) of optimal.
//   - FewestSets (Section IV.B): an Optimal Coverage of D with Smallest
//     Set Number — classical greedy set cover (largest remaining usable
//     set first) with the standard O(ln n) bound.
//   - BalancedPartitionLPT: an ablation variant that assigns block by
//     block to the least-loaded owner, longest-processing-time style.
//
// Exact solvers measure the greedies' empirical approximation ratios.
// OptimalMaxLoad solves P3 in polynomial time: blocks all have the same
// size, so it binary-searches the load bound with a bipartite b-matching.
// OptimalSetCount is an exhaustive search for small instances.
package cover
