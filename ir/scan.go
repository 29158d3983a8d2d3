package ir

import "indexedrec/internal/scan"

// Scan returns the inclusive prefix combine of xs under op in parallel:
// out[i] = xs[0] ⊗ ... ⊗ xs[i]. This is the classical special case of
// SolveOrdinary for the chain g(i)=i, f(i)=i-1, exposed directly because it
// needs no index tables; it runs on the same compiled ordinary plans. A
// panic in op is re-raised in the caller's goroutine as a worker panic
// error (see IsWorkerPanic).
func Scan[T any](op Semigroup[T], xs []T, procs int) []T {
	return scan.InclusiveParallel[T](op, xs, procs)
}

// LinearChain solves x[i] = a[i]·x[i-1] + b[i] (i ≥ 1, x[0] given) via
// parallel prefix over affine maps — the chain special case of SolveLinear.
func LinearChain(a, b []float64, x0 float64, procs int) []float64 {
	return scan.LinearRecurrenceParallel(a, b, x0, procs)
}

// KTermChain solves the order-k recurrence
// x[i] = a[0][i]·x[i-1] + ... + a[k-1][i]·x[i-k] + b[i] via parallel prefix
// over companion matrices (an extension beyond the paper's 2×2 case).
func KTermChain(k int, a [][]float64, b []float64, x0 []float64, procs int) ([]float64, error) {
	return scan.KTermRecurrenceParallel(k, a, b, x0, procs)
}
