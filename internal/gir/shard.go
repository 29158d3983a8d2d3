package gir

import (
	"context"
	"errors"
	"fmt"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// Shard-slice replays of compiled general plans. Once the path counts are
// fixed, the evaluation phase is embarrassingly parallel per cell
// (paper §5): cell x's value is a product of atomic powers of initial
// values, touching no other cell's output. A contiguous cell range is
// therefore a self-contained slice of the solve, bit-identical to the same
// cells of the full replay — the distribution unit of the general family.

// ErrShardRange is returned when a requested cell range does not fit the
// plan.
var ErrShardRange = errors.New("gir: shard range out of bounds")

// SolvePlanRangeCtx replays a compiled plan for cells [lo, hi) only,
// returning their final values (index k holds cell lo+k). Each cell's
// combines are exactly those SolvePlanCtx performs for it, so the slice is
// bit-identical to the same cells of the full replay. Error and
// cancellation behavior follows the SolvePlanCtx contract.
func SolvePlanRangeCtx[T any](ctx context.Context, p *Plan, op core.CommutativeMonoid[T], init []T, lo, hi int, procs int) (_ []T, err error) {
	defer parallel.RecoverTo(&err)
	if len(init) != p.m {
		return nil, fmt.Errorf("%w: len(init) = %d, want m = %d", ErrInitLen, len(init), p.m)
	}
	if lo < 0 || hi > p.m || lo > hi {
		return nil, fmt.Errorf("%w: cells [%d, %d) of %d", ErrShardRange, lo, hi, p.m)
	}
	out := make([]T, hi-lo)
	if err := evalCells(ctx, p, op, init, lo, out, procs); err != nil {
		return nil, err
	}
	return out, nil
}
