// Package checks holds the repo-specific analyzers run by cmd/meclint:
//
//   - determinism: no wall-clock reads, global math/rand, or
//     order-dependent map iteration in the deterministic packages, the
//     invariant behind byte-identical output at any -parallel value;
//   - nilsafe: exported pointer-receiver methods on nil-contract
//     observability types must begin with a nil-receiver guard, the
//     contract that makes disabled observability free;
//   - floatcmp: no exact ==/!= between non-constant floating-point
//     expressions in the numeric packages;
//   - exitcode: cmd binaries call os.Exit only from main/run top-level
//     error mapping, keeping the documented 0/1/2 exit-code contract.
//
// Each analyzer is covered by an analysistest-style suite over
// testdata/src packages; Applies scopes analyzers to the package trees
// whose invariants they guard. See docs/LINTING.md for the catalog.
package checks
