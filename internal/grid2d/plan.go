package grid2d

import (
	"context"
	"fmt"
	"unsafe"

	"indexedrec/internal/core"
)

// TileSide returns the side B of the square tiles a rows×cols grid is cut
// into: 256, whose 2 KiB tile rows stream well and which timed best among
// 128–1024 at 1024² to 4096². It depends on the shape alone, never on the
// machine, so plans and their round counts agree everywhere.
func TileSide(rows, cols int) int { return 256 }

// Plan is the compiled tile schedule of one grid shape: the tile side and
// the tile-grid dimensions, fixed from structure alone (dimensions, ring,
// term mask; never machine properties). A Plan is immutable after Compile
// and safe for concurrent SolveCtx calls from any number of goroutines.
type Plan struct {
	rows, cols int
	ring       Ring
	mask       uint8
	tile       int // tile side B
	tileRows   int // ⌈rows/B⌉
	tileCols   int // ⌈cols/B⌉
}

// Compile fixes the tile schedule for s's shape. The schedule depends only
// on structure (Rows, Cols, Ring, term mask), so two systems with the same
// shape share plans regardless of coefficient values; SolveCtx revalidates
// shape at solve time.
func Compile(ctx context.Context, s *System) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newPlan(s, TileSide(s.Rows, s.Cols)), nil
}

// newPlan compiles the valid system s with tile side b; Compile passes
// TileSide, tests pass small sides to cross many tile edges on small grids.
func newPlan(s *System, b int) *Plan {
	return &Plan{
		rows:     s.Rows,
		cols:     s.Cols,
		ring:     s.Ring,
		mask:     s.TermMask(),
		tile:     b,
		tileRows: (s.Rows + b - 1) / b,
		tileCols: (s.Cols + b - 1) / b,
	}
}

// Rounds returns the number of tile rounds, ⌈Rows/B⌉ + ⌈Cols/B⌉ − 1.
func (p *Plan) Rounds() int { return p.tileRows + p.tileCols - 1 }

// SizeBytes is the plan's resident size, for cache accounting: the O(1)
// schedule alone, since plans hold no grid buffers or arenas.
func (p *Plan) SizeBytes() int64 { return int64(unsafe.Sizeof(*p)) }

// roundTiles returns the first tile row of round k (tile (ti, k-ti)) and the
// round's tile count.
func (p *Plan) roundTiles(k int) (ti0, n int) {
	ti0 = max(0, k-(p.tileCols-1))
	return ti0, min(k, p.tileRows-1) - ti0 + 1
}

// matches checks that s is valid and has exactly the structure p was
// compiled for.
func (p *Plan) matches(s *System) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Rows != p.rows || s.Cols != p.cols || s.Ring != p.ring || s.TermMask() != p.mask {
		return fmt.Errorf("%w: system (%dx%d ring %s mask %#x) does not match plan (%dx%d ring %s mask %#x)",
			core.ErrInvalidSystem, s.Rows, s.Cols, s.Ring, s.TermMask(),
			p.rows, p.cols, p.ring, p.mask)
	}
	return nil
}

// SolveCtx replays the compiled schedule for s straight into a freshly
// allocated, caller-owned result, through a fresh arena shell — a few
// hundred bytes beside the result, so it is not pooled. Safe for
// concurrent use; concurrent replays share nothing but the schedule.
func (p *Plan) SolveCtx(ctx context.Context, s *System, procs int) (*Result, error) {
	if err := p.matches(s); err != nil {
		return nil, err
	}
	out := make([]float64, p.rows*p.cols)
	if err := p.newShell().run(ctx, s, procs, out); err != nil {
		return nil, err
	}
	r := p.result(out)
	return &r, nil
}

// result wraps a solved grid.
func (p *Plan) result(out []float64) Result {
	return Result{Values: out, Rounds: p.Rounds(), Cells: int64(p.rows) * int64(p.cols)}
}

// CompileLoop compiles s as a single tile: its replays fold the whole grid
// row-major on one goroutine, through the same concrete kernel as a tiled
// replay — the plain-loop baseline the wavefront is measured against.
func CompileLoop(s *System) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return newPlan(s, max(s.Rows, s.Cols)), nil
}
