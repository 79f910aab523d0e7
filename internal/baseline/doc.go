// Package baseline implements the comparison algorithms of the paper's
// evaluation (Section V.B):
//
//   - AllToC: every task goes to the remote cloud.
//   - AllOffload: every task is offloaded off-device, filling the base
//     stations first and spilling to the cloud.
//   - HGOS: a reimplementation of the Heuristic Greedy Offloading Scheme
//     of Guo et al. [12]. The original targets ultra-dense networks and
//     greedily offloads computation to minimize task duration; the paper
//     notes it considers neither per-task deadlines nor the data-shared
//     structure of the workload. Our HGOS therefore greedily gives each
//     task the lowest-latency subsystem that still has resource capacity
//     and never checks the result against the task's deadline or energy
//     budget. This reproduces the published contrast: HGOS energy lands
//     near LP-HTA but above it (duration-greedy offloading moves more raw
//     data than the energy optimum), and its unsatisfied-task rate is much
//     higher and grows with load (Figs. 2–4).
//   - Random: uniform placement; a sanity floor for tests.
//   - BruteForceHTA: the exact HTA optimum by exhaustive search, for small
//     instances — the tests' reference for core.OptimalHTA, which the
//     ratio experiment uses to measure LP-HTA's empirical ratio.
package baseline
