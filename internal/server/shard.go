package server

import (
	"context"
	"fmt"
	"time"

	"indexedrec/ir"
)

// The worker role. A coordinator (internal/cluster) cuts a compiled plan's
// shard domain with ir.Plan.Partition and scatters the slices here; each
// worker compiles — or cache-loads, since the request carries the same
// structure the fingerprint hashes — the plan and executes its slice with
// ir.Plan.SolveShardCtx. Shard solves go through the same admission pool,
// deadlines, and load-shedding as whole solves, so a worker that also takes
// direct traffic degrades both honestly rather than either silently.

// execShard validates a ShardRequest and returns the pool closure that
// resolves the plan (via the shared cache) and executes the slice. The
// ordinary and general families decode exactly like the solve endpoints
// (DecodeSolve), so a sparse shard ships the compact structure plus the
// touched-cell list — O(n) on the wire however large the global array — and
// its shard range and response cells address the compact plan; the
// coordinator holds the touched-cell list to map them back.
func (s *Server) execShard(body []byte) (runFunc, int, error) {
	var req ShardRequest
	if err := decodeBody(body, &req, true); err != nil {
		return nil, 0, fmt.Errorf("bad request body: %v", err)
	}
	fam, err := ir.FamilyByName(req.Family)
	if err != nil {
		return nil, 0, err
	}
	sh := ir.Shard{Lo: req.Shard.Lo, Hi: req.Shard.Hi}
	if sh.Lo < 0 || sh.Hi < sh.Lo {
		return nil, 0, fmt.Errorf("%w: [%d, %d)", ir.ErrShard, sh.Lo, sh.Hi)
	}
	var run runFunc
	switch fam {
	case ir.FamilyMoebius:
		run, err = s.execShardMoebius(&req, sh)
	case ir.FamilyGrid2D:
		run, err = s.execShardGrid2D(&req, sh)
	default:
		run, err = s.execShardSolve(&req, fam, sh)
	}
	return run, req.Opts.TimeoutMs, err
}

// execShardSolve is execShard's ordinary/general arm.
func (s *Server) execShardSolve(req *ShardRequest, fam ir.Family, sh ir.Shard) (runFunc, error) {
	sr, err := DecodeSolve(fam, req.System, req.Op, req.Mod, req.Init, false, req.Opts, s.limits())
	if err != nil {
		return nil, err
	}
	sr.Data.Opts.Procs = s.clampProcs(sr.Data.Opts.Procs)
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		p, err := PlanFor(s.plans, ctx, sr.Fingerprint(), sr.Compile)
		if err != nil {
			return nil, err
		}
		part, err := p.SolveShardCtx(ctx, sr.Data, sh)
		if err != nil {
			return nil, err
		}
		return shardResponse(part, start), nil
	}, nil
}

// execShardGrid2D is execShard's grid2d-family arm. A coordinator band is a
// self-contained sub-grid: a contiguous row slice of the full system whose
// North/NorthWest boundaries carry the halo (the previous band's last output
// row), so the worker solves it like any whole grid — through the plan
// cache, keyed by the band's own shape — and Shard only echoes the band's
// row range in the original grid.
func (s *Server) execShardGrid2D(req *ShardRequest, sh ir.Shard) (runFunc, error) {
	grid := req.Grid
	if grid == nil {
		return nil, fmt.Errorf("%w: grid2d shard request missing grid", ir.ErrInvalidSystem)
	}
	if err := ValidateGrid2D(grid, s.cfg.MaxN); err != nil {
		return nil, err
	}
	if sh.Hi-sh.Lo != grid.Rows {
		return nil, fmt.Errorf("%w: band [%d, %d) carries %d rows", ir.ErrShard, sh.Lo, sh.Hi, grid.Rows)
	}
	opt, err := req.Opts.Options()
	if err != nil {
		return nil, err
	}
	opt.Procs = s.clampProcs(opt.Procs)
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		res, err := solveGrid2D(ctx, s, grid, opt)
		if err != nil {
			return nil, err
		}
		return &ShardResponse{
			Shard:     ShardWire{Lo: sh.Lo, Hi: sh.Hi},
			Values:    res.Values,
			ElapsedMs: ms(start),
		}, nil
	}, nil
}

// execShardMoebius is execShard's Möbius-family arm: coefficients travel in
// A..D/X0, structure in System.M/G/F, and the compiled plan is the shadow
// ordinary system over 2x2 matrices.
func (s *Server) execShardMoebius(req *ShardRequest, sh ir.Shard) (runFunc, error) {
	g, f, m := req.System.G, req.System.F, req.System.M
	if len(g) > s.cfg.MaxN {
		return nil, fmt.Errorf("n = %d exceeds the server limit %d", len(g), s.cfg.MaxN)
	}
	opt, err := req.Opts.Options()
	if err != nil {
		return nil, err
	}
	opt.Procs = s.clampProcs(opt.Procs)
	data := ir.PlanData{A: req.A, B: req.B, C: req.C, D: req.D, X0: req.X0, Opts: opt}
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		p, _, err := MoebiusPlan(ctx, s.plans, m, g, f)
		if err != nil {
			return nil, err
		}
		part, err := p.SolveShardCtx(ctx, data, sh)
		if err != nil {
			return nil, err
		}
		return shardResponse(part, start), nil
	}, nil
}

// shardResponse packs a shard solution for the wire.
func shardResponse(part *ir.ShardSolution, start time.Time) ShardResponse {
	return ShardResponse{
		Shard:       ShardWire{Lo: part.Shard.Lo, Hi: part.Shard.Hi},
		Cells:       part.Cells,
		ValuesInt:   part.ValuesInt,
		ValuesFloat: part.ValuesFloat,
		Values:      part.Values,
		ElapsedMs:   ms(start),
	}
}
