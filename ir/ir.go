// Package ir is the public API of the indexedrec library: indexed
// recurrence systems and their O(log n) parallel solvers, from "Parallel
// Solutions of Indexed Recurrence Equations" (Ben-Asher & Haber, IPPS 1997).
//
// A system models the sequential loop
//
//	for i = 0 .. n-1:  A[G[i]] = op(A[F[i]], A[H[i]])
//
// (H nil means H = G, the "ordinary" form). Three solvers cover the paper's
// three tractable variants:
//
//   - SolveOrdinary — ordinary form with distinct G, any associative op
//     (order preserved; op need not be commutative); pointer jumping,
//     O(log n) rounds.
//   - SolveLinear / SolveLinearExtended / SolveMoebius — the affine and
//     fractional-linear recurrences X[g] := (a·X[f]+b)/(c·X[f]+d), reduced
//     to SolveOrdinary over 2×2 matrices (the paper's Möbius
//     transformation).
//   - SolveGeneral — arbitrary G, F, H with a commutative op and atomic
//     powers; dependence-graph path counting (CAP).
//
// Operators implement Semigroup (associativity), Monoid (identity), or
// CommutativeMonoid (commutativity + atomic Pow) — satisfaction is
// structural, so user-defined operators just implement the methods. A
// library of standard operators (IntAdd, MulMod, Concat, ...) is
// re-exported here.
//
// RunSequential executes the loop as written and is the semantic reference
// for every solver.
package ir

import (
	"context"
	"errors"

	"indexedrec/internal/core"
	"indexedrec/internal/gir"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
)

// System describes an indexed recurrence system; see core.System.
type System = core.System

// FromFuncs tabulates index functions g, f, h over 0..n-1 (h nil for the
// ordinary form H = G).
func FromFuncs(n, m int, g, f, h func(i int) int) *System {
	return core.FromFuncs(n, m, g, f, h)
}

// Operator interfaces. User types satisfy them structurally.
type (
	// Semigroup is an associative binary operation.
	Semigroup[T any] = core.Semigroup[T]
	// Monoid adds an identity element.
	Monoid[T any] = core.Monoid[T]
	// CommutativeMonoid adds commutativity and an atomic power, the
	// general-IR solver's contract.
	CommutativeMonoid[T any] = core.CommutativeMonoid[T]
)

// Standard operators.
type (
	IntAdd     = core.IntAdd
	IntMax     = core.IntMax
	IntMin     = core.IntMin
	IntXor     = core.IntXor
	Gcd        = core.Gcd
	MulMod     = core.MulMod
	AddMod     = core.AddMod
	Float64Add = core.Float64Add
	Float64Mul = core.Float64Mul
	Float64Min = core.Float64Min
	Float64Max = core.Float64Max
	BigMul     = core.BigMul
	Concat     = core.Concat
)

// RunSequential executes the loop exactly as written — the semantic
// definition of the system's result.
func RunSequential[T any](s *System, op Semigroup[T], init []T) []T {
	return core.RunSequential[T](s, op, init)
}

// OrdinaryResult is the outcome of SolveOrdinary.
type OrdinaryResult[T any] struct {
	// Values is the final array (equals RunSequential's output).
	Values []T
	// Rounds is the pointer-jumping round count, ⌈log₂ of the longest
	// write chain⌉.
	Rounds int
	// Combines is the total number of op applications (the work term).
	Combines int64
}

// SolveOrdinary solves an ordinary system (H = G, G distinct) with the
// paper's O(log n) pointer-jumping algorithm on up to procs goroutines
// (procs <= 0 selects GOMAXPROCS). op must be associative; operand order is
// preserved, so non-commutative operators are fine.
func SolveOrdinary[T any](s *System, op Semigroup[T], init []T, procs int) (*OrdinaryResult[T], error) {
	res, err := ordinary.Solve[T](s, op, init, ordinary.Options{Procs: procs})
	if err != nil {
		return nil, err
	}
	return &OrdinaryResult[T]{Values: res.Values, Rounds: res.Rounds, Combines: res.Combines}, nil
}

// PowerTerm is one factor A0[Cell]^Exp of a general solution's trace.
type PowerTerm struct {
	Cell int
	Exp  string // decimal; exponents can exceed any fixed-width integer
}

// GeneralResult is the outcome of SolveGeneral.
type GeneralResult[T any] struct {
	// Values is the final array.
	Values []T
	// Powers[x] is cell x's trace as a product of powers of initial
	// values (the paper's Fig. 5 artifact).
	Powers [][]PowerTerm
	// CAPRounds is the path-counting round count (log of the dependence
	// depth).
	CAPRounds int
}

// SolveGeneral solves an arbitrary system (any G, F, H — G need not be
// distinct) with the paper's dependence-graph path counting. op must be
// commutative with an atomic power. An init-length mismatch panics (the
// historical contract); use SolveGeneralCtx for the error-returning API.
func SolveGeneral[T any](s *System, op CommutativeMonoid[T], init []T, procs int) (*GeneralResult[T], error) {
	res, err := SolveGeneralCtx(context.Background(), s, op, init, SolveOptions{Procs: procs})
	if errors.Is(err, gir.ErrInitLen) {
		panic("gir: solveOnGraph: len(init) != s.M")
	}
	return res, err
}

// SolveLinear solves X[g(i)] := a[i]·X[f(i)] + b[i] (g distinct) via the
// Möbius reduction, returning the final X array.
func SolveLinear(m int, g, f []int, a, b, x0 []float64, procs int) ([]float64, error) {
	return SolveMoebius(m, g, f, a, b, nil, nil, x0, procs)
}

// SolveLinearExtended solves X[g(i)] := X[g(i)] + a[i]·X[f(i)] + b[i]
// (g distinct), the paper's extended form.
func SolveLinearExtended(m int, g, f []int, a, b, x0 []float64, procs int) ([]float64, error) {
	return SolveMoebius(m, g, f, a, extendedB(g, b, x0), nil, nil, x0, procs)
}

// extendedB rewrites the extended form's b to the plain affine one: g
// distinct means the X[g(i)] on the right-hand side is still x0[g(i)], so
// b'[i] = x0[g(i)] + b[i] (moebius.NewExtended's rewrite, leaving C and D
// nil).
func extendedB(g []int, b, x0 []float64) []float64 {
	b2 := make([]float64, len(g))
	for i, x := range g {
		b2[i] = x0[x] + b[i]
	}
	return b2
}

// SolveMoebius solves the full fractional-linear form
// X[g(i)] := (a[i]·X[f(i)] + b[i]) / (c[i]·X[f(i)] + d[i]) (g distinct).
// Nil c and d select the affine form c = 0, d = 1.
func SolveMoebius(m int, g, f []int, a, b, c, d, x0 []float64, procs int) ([]float64, error) {
	ms := &moebius.MoebiusSystem{M: m, G: g, F: f, A: a, B: b, C: c, D: d}
	return ms.Solve(x0, ordinary.Options{Procs: procs})
}
