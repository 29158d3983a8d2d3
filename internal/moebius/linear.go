package moebius

import (
	"context"
	"errors"
	"fmt"
	"math"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
)

// MoebiusSystem describes n iterations of the full fractional-linear
// indexed recurrence X[g(i)] := (A[i]·X[f(i)] + B[i]) / (C[i]·X[f(i)] + D[i])
// over m cells. The affine forms are the special case C = 0, D = 1.
type MoebiusSystem struct {
	// M is the number of X cells.
	M int
	// G and F are the write/read index maps (G must be distinct).
	G, F []int
	// A, B, C, D are the per-iteration coefficients, each of length len(G).
	A, B, C, D []float64
}

// NewLinear builds the affine system X[g(i)] := a[i]·X[f(i)] + b[i].
func NewLinear(m int, g, f []int, a, b []float64) *MoebiusSystem {
	n := len(g)
	c := make([]float64, n)
	d := make([]float64, n)
	for i := range d {
		d[i] = 1
	}
	return &MoebiusSystem{M: m, G: g, F: f, A: a, B: b, C: c, D: d}
}

// NewExtended builds X[g(i)] := X[g(i)] + a[i]·X[f(i)] + b[i] given the
// initial values x0, using the paper's rewriting: g distinct means the
// X[g(i)] on the right-hand side is still the initial value S[g(i)], so the
// loop equals the plain affine loop with b'[i] = S[g(i)] + b[i].
func NewExtended(m int, g, f []int, a, b, x0 []float64) *MoebiusSystem {
	n := len(g)
	b2 := make([]float64, n)
	for i := 0; i < n; i++ {
		b2[i] = x0[g[i]] + b[i]
	}
	return NewLinear(m, g, f, a, b2)
}

// ErrBadSystem wraps validation failures.
var ErrBadSystem = errors.New("moebius: invalid system")

// ErrInitLen is returned by SolveCtx when len(x0) != M. The legacy Solve
// wrapper converts it back into the historical panic.
var ErrInitLen = errors.New("moebius: initial array length does not match M")

// ErrNonFinite is returned by SolveCtx when a coefficient or initial value
// is NaN/±Inf, or when the solve produces a non-finite cell from finite
// inputs (a division by zero somewhere along a composed chain). The legacy
// Solve keeps the sequential loop's IEEE semantics and returns the Inf/NaN
// values instead.
var ErrNonFinite = errors.New("moebius: non-finite value")

// CheckFinite reports the first non-finite coefficient, in A, B, C, D row
// order, as an ErrNonFinite error, or nil when all coefficients are finite.
func (ms *MoebiusSystem) CheckFinite() error {
	return checkRowsFinite(ms.A, ms.B, ms.C, ms.D)
}

// Validate checks lengths, bounds and the distinct-g precondition.
func (ms *MoebiusSystem) Validate() error {
	n := len(ms.G)
	if len(ms.F) != n || len(ms.A) != n || len(ms.B) != n || len(ms.C) != n || len(ms.D) != n {
		return fmt.Errorf("%w: map/coefficient lengths disagree", ErrBadSystem)
	}
	if ms.M <= 0 {
		return fmt.Errorf("%w: M = %d", ErrBadSystem, ms.M)
	}
	return checkIndexMaps(ms.M, ms.G, ms.F)
}

// checkIndexMaps checks that g and f (of equal length) index [0, m) and that
// g is distinct, reporting the first failing iteration in loop order: a range
// error at iteration i, or a duplicate write whose repeat comes first.
func checkIndexMaps(m int, g, f []int) error {
	bad := len(g)
	for i := range g {
		if g[i] < 0 || g[i] >= m || f[i] < 0 || f[i] >= m {
			bad = i
			break
		}
	}
	if dup := core.FirstRepeat(g[:bad], m); dup >= 0 {
		return fmt.Errorf("%w: g not distinct (cell %d)", ErrBadSystem, g[dup])
	}
	if bad < len(g) {
		return fmt.Errorf("%w: index out of range at iteration %d", ErrBadSystem, bad)
	}
	return nil
}

// Iter returns the Möbius matrix of iteration i.
func (ms *MoebiusSystem) Iter(i int) Mat2 {
	return Mat2{A: ms.A[i], B: ms.B[i], C: ms.C[i], D: ms.D[i]}
}

// RunSequential executes the loop as written — the correctness oracle.
func (ms *MoebiusSystem) RunSequential(x0 []float64) []float64 {
	x := append([]float64(nil), x0...)
	for i := range ms.G {
		v := x[ms.F[i]]
		x[ms.G[i]] = (ms.A[i]*v + ms.B[i]) / (ms.C[i]*v + ms.D[i])
	}
	return x
}

// Solve computes the final X array in O(log n) parallel steps via the
// three-step reduction of the paper's §3:
//
//  1. initialize one matrix per written cell (plus identity elsewhere),
//  2. run OrdinaryIR over the guarded matrix product along write chains,
//  3. apply each composed map to the initial value at its chain root.
//
// Steps 1 and 3 are single parallel steps; step 2 is ordinary.Solve.
//
// An x0-length mismatch panics (the historical contract) and outputs follow
// IEEE semantics (a division by zero yields ±Inf/NaN, exactly as the
// sequential loop would); use SolveCtx for the guarded, error-returning API.
func (ms *MoebiusSystem) Solve(x0 []float64, opt ordinary.Options) ([]float64, error) {
	out, err := ms.solve(context.Background(), x0, opt)
	if errors.Is(err, ErrInitLen) {
		panic("moebius: Solve: len(x0) != M")
	}
	return out, err
}

// SolveCtx is the hardened entry point: identical algorithm, but every
// failure returns as an error — invalid system, x0-length mismatch,
// non-finite coefficients or initial values (ErrNonFinite), a division by
// zero surfacing as a non-finite output cell (ErrNonFinite), a panic in the
// OnRound hook, or cancellation of ctx.
func (ms *MoebiusSystem) SolveCtx(ctx context.Context, x0 []float64, opt ordinary.Options) ([]float64, error) {
	if err := ms.CheckFinite(); err != nil {
		return nil, err
	}
	for x, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: x0[%d] = %v", ErrNonFinite, x, v)
		}
	}
	out, err := ms.solve(ctx, x0, opt)
	if err != nil {
		return nil, err
	}
	for x, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: cell %d = %v (division by zero along its chain)",
				ErrNonFinite, x, v)
		}
	}
	return out, nil
}

// solve is the shared three-step reduction.
func (ms *MoebiusSystem) solve(ctx context.Context, x0 []float64, opt ordinary.Options) ([]float64, error) {
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	if len(x0) != ms.M {
		return nil, fmt.Errorf("%w: len(x0) = %d, want M = %d", ErrInitLen, len(x0), ms.M)
	}
	n := len(ms.G)
	sys, origOf, err := buildShadowSystem(ms.M, ms.G, ms.F)
	if err != nil {
		return nil, err
	}

	// Step 1: per-cell matrices.
	mats := make([]Mat2, sys.M)
	for x := range mats {
		mats[x] = Identity()
	}
	for i := 0; i < n; i++ {
		mats[ms.G[i]] = ms.Iter(i)
	}

	// Step 2: ordinary IR over ⊙.
	res, err := ordinary.SolveCtx[Mat2](ctx, sys, ChainOp{}, mats, opt)
	if err != nil {
		return nil, fmt.Errorf("moebius: %w", err)
	}

	// Step 3: apply composed maps to root initial values.
	out := append([]float64(nil), x0...)
	for i := 0; i < n; i++ {
		x := ms.G[i]
		out[x] = res.Values[x].Apply(x0[shadowOrig(res.Roots[x], ms.M, origOf)])
	}
	return out, nil
}
