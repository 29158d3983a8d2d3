package moebius

import (
	"context"
	"errors"
	"fmt"
	"math"

	"indexedrec/internal/ordinary"
)

// Shard-slice replays of compiled Möbius plans. The composed 2×2 matrix of
// an output cell depends only on its own chain of the shadow system's
// write-chain forest, so a contiguous range of output cells is served by
// replaying just the chains those cells live on (the ordinary member-closure
// machinery) and applying the composed maps — bit-identical to the same
// cells of Plan.SolveCtx.

// ErrShardRange is returned when a requested cell range does not fit the
// plan.
var ErrShardRange = errors.New("moebius: shard range out of bounds")

// SolveRangeCtx replays the plan for output cells [lo, hi) only, returning
// their final values (index k holds cell lo+k). Validation mirrors
// SolveCtx — all coefficients are checked even though only the range's
// chains are replayed — and the composed matrices, map applications and
// non-finite guards for cells in range are exactly the full replay's, so
// the slice is bit-identical to out[lo:hi] of Plan.SolveCtx.
func (p *Plan) SolveRangeCtx(ctx context.Context, a, b, c, d, x0 []float64, lo, hi int, opt ordinary.Options) ([]float64, error) {
	n := p.N
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		return nil, fmt.Errorf("%w: coefficient lengths disagree with n = %d", ErrBadSystem, n)
	}
	if err := checkRowsFinite(a, b, c, d); err != nil {
		return nil, err
	}
	if len(x0) != p.M {
		return nil, fmt.Errorf("%w: len(x0) = %d, want M = %d", ErrInitLen, len(x0), p.M)
	}
	for x, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: x0[%d] = %v", ErrNonFinite, x, v)
		}
	}
	if lo < 0 || hi > p.M || lo > hi {
		return nil, fmt.Errorf("%w: cells [%d, %d) of %d", ErrShardRange, lo, hi, p.M)
	}

	// Step 1: per-cell matrices, exactly as the full replay builds them.
	mats := make([]Mat2, p.shadowM)
	for x := range mats {
		mats[x] = Identity()
	}
	for i := 0; i < n; i++ {
		mats[p.g[i]] = Mat2{A: a[i], B: b[i], C: c[i], D: d[i]}
	}

	// Step 2: replay only the chains that own written cells in range.
	chainOf := p.ord.ChainOf()
	mark := make([]bool, p.ord.NumChains())
	for i := 0; i < n; i++ {
		if x := p.g[i]; x >= lo && x < hi {
			mark[chainOf[x]] = true
		}
	}
	member := make([]bool, p.shadowM)
	for x, c := range chainOf {
		if c >= 0 && mark[c] {
			member[x] = true
		}
	}
	res, err := ordinary.SolvePlanMemberCtx[Mat2](ctx, p.ord, ChainOp{}, mats, member, opt)
	if err != nil {
		return nil, fmt.Errorf("moebius: %w", err)
	}

	// Step 3: apply composed maps for written cells in range.
	out := append([]float64(nil), x0[lo:hi]...)
	for i := 0; i < n; i++ {
		x := p.g[i]
		if x >= lo && x < hi {
			out[x-lo] = res[x].Apply(x0[p.applyRoot[x]])
		}
	}
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: cell %d = %v (division by zero along its chain)",
				ErrNonFinite, lo+k, v)
		}
	}
	return out, nil
}
