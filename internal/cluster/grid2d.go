package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"indexedrec/internal/server"
	"indexedrec/ir"
)

// The grid2d scatter path. A 2-D grid's rows have a true data dependency —
// band b's first row reads band b-1's last — so unlike the 1-D families the
// coordinator cannot run shards concurrently. It pipelines contiguous row
// bands instead: each band ships as a self-contained sub-grid whose North
// halo is the previous band's last output row (and whose NorthWest corner
// is the original West cell above the band), giving memory scale-out — the
// full coefficient grids never have to fit one worker — plus plan-cache
// affinity per band shape, not latency speedup. Per-band values are
// schedule-independent, so the stitched result is bit-identical to a local
// solve. Any band failure degrades the whole solve to local execution, as
// a failed scatter does.

// bandGrid cuts rows [r0, r1) of sys into a self-contained sub-grid, with
// north/nw carrying the halo from the rows above (the original boundary for
// the first band, the previous band's output afterwards). Slices alias sys.
func bandGrid(sys *ir.Grid2DSystem, r0, r1 int, north []float64, nw float64) *ir.Grid2DSystem {
	cols := sys.Cols
	cut := func(g []float64) []float64 {
		if g == nil {
			return nil
		}
		return g[r0*cols : r1*cols]
	}
	return &ir.Grid2DSystem{
		Rows: r1 - r0, Cols: cols, Semiring: sys.Semiring,
		A: cut(sys.A), B: cut(sys.B), Diag: cut(sys.Diag), C: cut(sys.C),
		North: north, West: sys.West[r0:r1], NorthWest: nw,
	}
}

// scatterGrid2D executes the band pipeline over the live fleet. Bands go
// through the same solveShard machinery as 1-D shards — rendezvous worker
// ranking (by plan key and band index), circuit breakers, a shared
// per-solve retry budget, and hedged duplicates — one band at a time, each
// seeded with the halo row the previous band produced.
func (co *Coordinator) scatterGrid2D(ctx context.Context, p *ir.Plan, key string, sr *server.SolveRequest) (*ir.PlanSolution, error) {
	ws := co.alive()
	if len(ws) == 0 {
		return nil, ErrNoWorkers
	}
	sys := sr.Data.Grid
	rows, cols := sys.Rows, sys.Cols
	nb := min(len(ws), rows)
	base, err := sr.ShardRequest(ctx)
	if err != nil {
		return nil, err
	}
	var budget atomic.Int64
	budget.Store(co.retryBudget(nb))

	out := make([]float64, rows*cols)
	north, nw := sys.North, sys.NorthWest
	for b := 0; b < nb; b++ {
		r0, r1 := rows*b/nb, rows*(b+1)/nb
		req := base
		req.Shard = server.ShardWire{Lo: r0, Hi: r1}
		req.Grid = bandGrid(sys, r0, r1, north, nw)
		prefs := rankWorkers(ws, key, b)
		resp, err := co.solveShard(ctx, req, prefs, &budget)
		if err != nil {
			return nil, fmt.Errorf("band %d [%d, %d): %w", b, r0, r1, err)
		}
		if len(resp.Values) != (r1-r0)*cols {
			return nil, fmt.Errorf("band %d [%d, %d): worker returned %d values, want %d",
				b, r0, r1, len(resp.Values), (r1-r0)*cols)
		}
		copy(out[r0*cols:r1*cols], resp.Values)
		north = out[(r1-1)*cols : r1*cols]
		nw = sys.West[r1-1]
	}
	return &ir.PlanSolution{Values: out, Rounds: p.N()}, nil
}
