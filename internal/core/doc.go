// Package core implements the paper's task-assignment algorithms: LP-HTA
// for holistic tasks (Section III) and the two DTA variants plus task
// rearrangement for divisible tasks (Section IV), and the exact HTA
// optimum (OptimalHTA) that LP-HTA's empirical ratio is measured against.
package core
