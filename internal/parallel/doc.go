// Package parallel provides the small goroutine runtime the solvers are
// built on: a chunked, panic-safe, cancellable parallel-for loop with a
// configurable processor count, and persistent worker gangs that reuse one
// set of goroutines across a solve's rounds.
//
// The design follows the fixed-worker-pool idiom: a bounded number of
// goroutines each own a contiguous index range and are joined before the
// loop returns, so the solvers control their parallelism explicitly (the
// paper's "forks only up to P processes at the same time" discipline).
//
// # Contract
//
// ForCtx(ctx, n, procs, body) splits [0, n) into at most procs contiguous
// ranges and runs body(lo, hi) on each; ForEachCtx is its per-index
// convenience. Cancellation is checked between chunks, the first error
// cancels the rest, and worker panics are converted to *PanicError rather
// than crashing the process (RecoverTo is the helper exported for solver
// entry points). Callers own all slices they pass; the runtime never
// retains references past the call. Loops never cross a goroutine boundary
// for tiny work: chunk counts are clamped so every chunk carries a minimum
// grain of iterations, and single-chunk loops run inline on the caller.
//
// # Gangs
//
// A Gang (gang.go) is the persistent form of the worker pool: a fixed set
// of goroutines parked on a round-dispatch channel, reused across all
// O(log n) rounds of a solve instead of being spawned per round. Solvers
// acquire one per solve via EnsureGang, and long-lived owners (the irserved
// worker pool) pin one on the context with WithGang so every solve they run
// reuses the same parked workers. ForCtx dispatches onto a context's
// gang transparently when one is present and idle, and falls back to
// spawn-per-round otherwise (including under re-entrancy, where an inner
// loop finds the gang busy); both paths run the same chunk bodies in the
// same index ranges, so results are identical. SetGangEnabled is the global
// kill switch fuzzers use to prove that.
package parallel
