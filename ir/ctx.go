package ir

import (
	"context"
	"errors"

	"indexedrec/internal/core"
	"indexedrec/internal/gir"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
)

// This file is the hardened half of the public API: context-accepting,
// error-returning variants of every solver. The contract, shared by all of
// them:
//
//   - invalid input (shape mismatches, out-of-range indices, wrong init
//     length) returns a validated error — nothing panics;
//   - a panic or parallel.Abort inside a user operator (Combine/Pow) or
//     callback is recovered and returned as an error, with every worker
//     goroutine joined — the process never crashes and nothing leaks;
//   - cancelling ctx stops the solve between rounds/chunks and returns
//     ctx.Err() promptly;
//   - exponent growth in the general solver is bounded by MaxExponentBits,
//     surfacing ErrExponentLimit instead of exhausting memory.
//
// The legacy Solve* functions remain as thin wrappers with their historical
// panicking behavior on init-length mismatches.

// Typed errors a robust caller can match with errors.Is.
var (
	// ErrInvalidSystem wraps every structural validation failure.
	ErrInvalidSystem = core.ErrInvalidSystem
	// ErrExponentLimit is returned by SolveGeneralCtx when a trace
	// exponent exceeds SolveOptions.MaxExponentBits.
	ErrExponentLimit = gir.ErrExponentLimit
	// ErrCompileBudget is returned by CompileCtx when a general plan's
	// path counts would need more terms than CompileOptions.MaxTerms.
	ErrCompileBudget = gir.ErrCompileBudget
	// ErrNonFinite is returned by the Möbius solvers for NaN/Inf
	// coefficients or a division by zero along a composed chain.
	ErrNonFinite = moebius.ErrNonFinite
)

// SolveOptions configure the hardened solvers.
type SolveOptions struct {
	// Procs bounds the goroutines per parallel step; <= 0 means
	// GOMAXPROCS.
	Procs int
	// MaxExponentBits caps trace-exponent bit length in SolveGeneralCtx
	// (path counts grow like fib(n)); <= 0 means unlimited.
	MaxExponentBits int
}

// SolveOrdinaryCtx is the hardened SolveOrdinary; see the file comment for
// the error and cancellation contract.
func SolveOrdinaryCtx[T any](ctx context.Context, s *System, op Semigroup[T], init []T, opt SolveOptions) (*OrdinaryResult[T], error) {
	res, err := ordinary.SolveCtx[T](ctx, s, op, init, ordinary.Options{Procs: opt.Procs})
	if err != nil {
		return nil, err
	}
	return &OrdinaryResult[T]{Values: res.Values, Rounds: res.Rounds, Combines: res.Combines}, nil
}

// SolveGeneralCtx is the hardened SolveGeneral; see the file comment for
// the error and cancellation contract. It compiles the system's path
// counts and replays them once, the path SolveGeneralPlanCtx repeats.
func SolveGeneralCtx[T any](ctx context.Context, s *System, op CommutativeMonoid[T], init []T, opt SolveOptions) (*GeneralResult[T], error) {
	gp, values, err := gir.CompileSolveCtx(ctx, s, op, init, opt.MaxExponentBits, opt.Procs)
	if err != nil {
		return nil, err
	}
	return generalResult(gp, values, true), nil
}

// SolveLinearCtx is the hardened SolveLinear; non-finite inputs or outputs
// return ErrNonFinite instead of propagating IEEE Inf/NaN.
func SolveLinearCtx(ctx context.Context, m int, g, f []int, a, b, x0 []float64, opt SolveOptions) ([]float64, error) {
	return SolveMoebiusCtx(ctx, m, g, f, a, b, nil, nil, x0, opt)
}

// SolveLinearExtendedCtx is the hardened SolveLinearExtended.
func SolveLinearExtendedCtx(ctx context.Context, m int, g, f []int, a, b, x0 []float64, opt SolveOptions) ([]float64, error) {
	return SolveMoebiusCtx(ctx, m, g, f, a, extendedB(g, b, x0), nil, nil, x0, opt)
}

// SolveMoebiusCtx is the hardened SolveMoebius; nil c and d select the
// affine form.
func SolveMoebiusCtx(ctx context.Context, m int, g, f []int, a, b, c, d, x0 []float64, opt SolveOptions) ([]float64, error) {
	ms := &moebius.MoebiusSystem{M: m, G: g, F: f, A: a, B: b, C: c, D: d}
	return ms.SolveCtx(ctx, x0, ordinary.Options{Procs: opt.Procs})
}

// IsWorkerPanic reports whether err originated as a recovered panic in a
// worker goroutine and, if so, returns the panic payload's description.
func IsWorkerPanic(err error) (string, bool) {
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return pe.Error(), true
	}
	return "", false
}
