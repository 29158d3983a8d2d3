package moebius

import (
	"context"
	"errors"
	"fmt"

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
// their final values (index k holds cell lo+k). It shares the full replay's
// load and apply steps: the guards run in the same order over all
// coefficients, even though only the range's chains are replayed, then the
// range is checked; the composed matrices, map applications and non-finite
// guards for cells in range are exactly the full replay's, so the slice is
// bit-identical to out[lo:hi] of Plan.SolveCtx. Nil c and d select the
// affine form.
func (p *Plan) SolveRangeCtx(ctx context.Context, a, b, c, d, x0 []float64, lo, hi int, opt ordinary.Options) ([]float64, error) {
	mats := make([]Mat2, p.shadowM)
	fillIdentity(mats)
	if err := p.load(mats, a, b, c, d, x0); err != nil {
		return nil, err
	}
	if lo < 0 || hi > p.M || lo > hi {
		return nil, fmt.Errorf("%w: cells [%d, %d) of %d", ErrShardRange, lo, hi, p.M)
	}

	// Replay only the chains that own written cells in range.
	chainOf := p.ord.ChainOf()
	mark := make([]bool, p.ord.NumChains())
	for _, x := range p.g {
		if x >= lo && x < hi {
			mark[chainOf[x]] = true
		}
	}
	member := make([]bool, p.shadowM)
	for x, c := range chainOf {
		if c >= 0 && mark[c] {
			member[x] = true
		}
	}
	vals, err := ordinary.SolvePlanMemberCtx[Mat2](ctx, p.ord, ChainOp{}, mats, member, opt)
	if err != nil {
		return nil, fmt.Errorf("moebius: %w", err)
	}
	out := make([]float64, hi-lo)
	if err := p.apply(out, vals, x0, lo); err != nil {
		return nil, err
	}
	return out, nil
}
