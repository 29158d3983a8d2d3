package grid2d

import (
	"context"
	"sync/atomic"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// kernelsDisabled is the global kill switch for the concrete grid kernels
// (see SetKernelsEnabled): when set, solves dispatch every cell update
// through the generic Semiring interface path instead. Fuzzers flip it to
// prove both dispatch paths are bit-identical.
var kernelsDisabled atomic.Bool

// SetKernelsEnabled globally enables (default) or disables the concrete
// grid kernels and reports whether they were enabled before. Intended for
// tests and fuzzers exercising the generic path; not a production tunable.
func SetKernelsEnabled(on bool) bool {
	return !kernelsDisabled.Swap(!on)
}

// kernelFor resolves the ring's tile kernel under the kill switch.
func kernelFor(r Ring) core.GridKernel {
	if kernelsDisabled.Load() {
		return core.GridKernelGeneric(r.semiring())
	}
	return r.semiring()
}

// Arena is the reusable state of grid replays: the bound round body and
// the per-solve bindings it reads, plus — in caller-owned arenas from
// NewArena — an output buffer and result shell, so warm replays allocate
// nothing. An arena runs one solve at a time, and Arena.SolveCtx's result
// aliases its buffer until the next SolveCtx. Use one arena per worker, or
// Plan.SolveCtx for replays into fresh results.
type Arena struct {
	plan *Plan
	out  []float64 // caller-owned arenas only; nil in shells
	res  Result

	// Per-solve bindings, cleared on return so an idle arena retains no
	// caller data. bad is set by any tile whose finiteness probe fires.
	frame core.GridFrame
	kern  core.GridKernel
	round int
	bad   atomic.Bool

	// The round body, bound once so ForCtx dispatch never allocates.
	body func(lo, hi int) error
}

// newShell allocates an arena without an output buffer, for a replay that
// writes into its caller's.
func (p *Plan) newShell() *Arena {
	a := &Arena{plan: p}
	a.body = a.tiles
	return a
}

// NewArena allocates a caller-owned arena for p, with its output buffer.
func (p *Plan) NewArena() *Arena {
	a := p.newShell()
	a.out = make([]float64, p.rows*p.cols)
	return a
}

// tiles is the round body: solve tiles [lo, hi) of the current round, each
// B×B tile (ti, round-ti) in row-major order.
func (a *Arena) tiles(lo, hi int) error {
	p := a.plan
	ti0, _ := p.roundTiles(a.round)
	for t := lo; t < hi; t++ {
		i0, j0 := (ti0+t)*p.tile, (a.round-ti0-t)*p.tile
		if a.kern.Tile(&a.frame, i0, min(i0+p.tile, p.rows), j0, min(j0+p.tile, p.cols)) != 0 {
			a.bad.Store(true)
		}
	}
	return nil
}

// run replays the tile schedule for the matching system s into out, one
// parallel round per anti-diagonal of tiles. A non-finite cell does not
// stop it: a later tile can hold an earlier row-major cell, so a rescan
// after the last round names the first bad cell.
func (a *Arena) run(ctx context.Context, s *System, procs int, out []float64) error {
	p := a.plan
	if procs <= 0 {
		procs = parallel.DefaultProcs()
	}
	a.frame = core.GridFrame{Cols: p.cols, W: out, A: s.A, B: s.B, D: s.D, C: s.C,
		North: s.North, West: s.West, NW: s.NW}
	a.kern = kernelFor(s.Ring)
	a.bad.Store(false)

	// The widest round holds min(tileRows, tileCols) tiles; size the gang
	// by its cells so the minimum grain never collapses it.
	wide := min(p.tileRows, p.tileCols)
	ctx, release := parallel.EnsureGang(ctx, min(procs, wide), min(wide*p.tile*p.tile, p.rows*p.cols))
	var err error
	for k := 0; k < p.Rounds() && err == nil; k++ {
		a.round = k
		_, n := p.roundTiles(k)
		err = parallel.ForCtxWeighted(ctx, n, procs, p.tile*p.tile, a.body)
	}
	release()
	a.frame, a.kern = core.GridFrame{}, nil
	if err == nil && a.bad.Load() {
		err = checkFinite(out, p.cols)
	}
	return err
}

// SolveCtx replays the compiled schedule for s into the arena's own buffer,
// which the result aliases until the next SolveCtx on this arena. Warm
// replays allocate nothing and are bit-identical to SolveSequential.
func (a *Arena) SolveCtx(ctx context.Context, s *System, procs int) (*Result, error) {
	p := a.plan
	if err := p.matches(s); err != nil {
		return nil, err
	}
	if err := a.run(ctx, s, procs, a.out); err != nil {
		return nil, err
	}
	a.res = p.result(a.out)
	return &a.res, nil
}
