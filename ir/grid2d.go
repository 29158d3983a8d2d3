package ir

import (
	"context"
	"fmt"

	"indexedrec/internal/grid2d"
)

// The 2-D recurrence-grid family (Natale, "On the Computation of 2-D
// Recurrence Equations"): w[i,j] = (a ⊗ w[i-1,j]) ⊕ (b ⊗ w[i,j-1]) ⊕
// (d ⊗ w[i-1,j-1]) ⊕ c over a selectable semiring, solved by wavefronts
// over anti-diagonals of cache-sized tiles. See internal/grid2d for the
// engine; this file is the public facade and wire shape.

// ErrGrid2DNonFinite reports a grid solve whose output overflowed to NaN or
// ±Inf — a value problem (422 on the wire), not a malformed system.
var ErrGrid2DNonFinite = grid2d.ErrNonFinite

// Grid2DSystem is one 2-D recurrence grid, and doubles as its JSON wire
// form. All grids are row-major Rows×Cols; a nil coefficient grid omits
// that term (at least one of A, B, Diag, C must be present).
type Grid2DSystem struct {
	// Rows and Cols are the interior grid dimensions (both ≥ 1).
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Semiring selects the fold algebra: "affine" (default; ⊕=+, ⊗=×),
	// "maxplus" (⊕=max, ⊗=+) or "minplus" (⊕=min, ⊗=+).
	Semiring string `json:"semiring,omitempty"`
	// A scales the up neighbour w[i-1,j].
	A []float64 `json:"a,omitempty"`
	// B scales the left neighbour w[i,j-1].
	B []float64 `json:"b,omitempty"`
	// Diag scales the diagonal neighbour w[i-1,j-1].
	Diag []float64 `json:"diag,omitempty"`
	// C is the per-cell constant term.
	C []float64 `json:"c,omitempty"`
	// North is the boundary row w[-1,j], length Cols.
	North []float64 `json:"north"`
	// West is the boundary column w[i,-1], length Rows.
	West []float64 `json:"west"`
	// NorthWest is the corner boundary w[-1,-1].
	NorthWest float64 `json:"northwest,omitempty"`
}

// Grid2DResult is a solved grid.
type Grid2DResult struct {
	// Values is the solved interior grid, row-major Rows×Cols.
	Values []float64
	// Rounds is the number of wavefront rounds: ⌈Rows/B⌉ + ⌈Cols/B⌉ − 1
	// anti-diagonals of B×B tiles.
	Rounds int
	// Cells is the number of interior cells solved.
	Cells int64
}

// internal converts the wire form to the engine's system, resolving the
// semiring name. The slices are shared, not copied.
func (s *Grid2DSystem) internal() (*grid2d.System, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil grid system", ErrInvalidSystem)
	}
	ring, err := grid2d.RingByName(s.Semiring)
	if err != nil {
		return nil, err
	}
	return &grid2d.System{
		Rows: s.Rows, Cols: s.Cols, Ring: ring,
		A: s.A, B: s.B, D: s.Diag, C: s.C,
		North: s.North, West: s.West, NW: s.NorthWest,
	}, nil
}

// Validate checks the grid's shape and boundary finiteness (errors wrap
// ErrInvalidSystem); coefficient values are checked at solve time via the
// output probe.
func (s *Grid2DSystem) Validate() error {
	gs, err := s.internal()
	if err != nil {
		return err
	}
	return gs.Validate()
}

// Grid2DFingerprint returns the canonical structure hash of a grid system —
// dimensions, semiring, term mask; never coefficient values or machine
// properties — in the same "family:hex" shape as PlanFingerprint. Two grid
// solves share a fingerprint exactly when they can share a compiled plan.
func Grid2DFingerprint(s *Grid2DSystem) (string, error) {
	gs, err := s.internal()
	if err != nil {
		return "", err
	}
	if err := gs.Validate(); err != nil {
		return "", err
	}
	hs := newStructHasher(FamilyGrid2D)
	hs.int(gs.Rows)
	hs.int(gs.Cols)
	hs.byte(byte(gs.Ring))
	hs.byte(gs.TermMask())
	return hs.sum(FamilyGrid2D.String()), nil
}

// CompileGrid2D precomputes the wavefront schedule of s's structure. It is
// CompileGrid2DCtx with a background context.
func CompileGrid2D(s *Grid2DSystem) (*Plan, error) {
	return CompileGrid2DCtx(context.Background(), s)
}

// CompileGrid2DCtx compiles a grid system into a Plan: the tile side and
// tile-round order, fixed from structure alone so plans sharing a
// Grid2DFingerprint are interchangeable. Replay with
// SolveGrid2DPlanCtx (or Plan.SolveCtx with PlanData.Grid) against any
// system of the same structure.
func CompileGrid2DCtx(ctx context.Context, s *Grid2DSystem) (*Plan, error) {
	gs, err := s.internal()
	if err != nil {
		return nil, err
	}
	// grid2d.Compile opens with the same gs.Validate() Grid2DFingerprint
	// runs, so a grid the fingerprint rejects never compiles.
	gp, err := grid2d.Compile(ctx, gs)
	if err != nil {
		return nil, err
	}
	return &Plan{family: FamilyGrid2D, n: gp.Rounds(), m: gs.Rows * gs.Cols, g2: gp, size: gp.SizeBytes()}, nil
}

// SolveGrid2DPlanCtx replays a grid2d-family plan against a fresh system of
// the compiled structure, bit-identical to SolveGrid2DCtx and to the
// sequential oracle. Each replay writes into a fresh result.
func SolveGrid2DPlanCtx(ctx context.Context, p *Plan, s *Grid2DSystem, opt SolveOptions) (*Grid2DResult, error) {
	if p.family != FamilyGrid2D {
		return nil, fmt.Errorf("%w: plan is %v, want grid2d", ErrPlanFamily, p.family)
	}
	gs, err := s.internal()
	if err != nil {
		return nil, err
	}
	res, err := p.g2.SolveCtx(ctx, gs, opt.Procs)
	if err != nil {
		return nil, err
	}
	return &Grid2DResult{Values: res.Values, Rounds: res.Rounds, Cells: res.Cells}, nil
}

// SolveGrid2D solves a 2-D recurrence grid. It is SolveGrid2DCtx with a
// background context.
func SolveGrid2D(s *Grid2DSystem, opt SolveOptions) (*Grid2DResult, error) {
	return SolveGrid2DCtx(context.Background(), s, opt)
}

// SolveGrid2DCtx solves a 2-D recurrence grid by tiled wavefronts: each
// anti-diagonal of B×B tiles is one parallel round of row-major tile
// folds, ⌈Rows/B⌉ + ⌈Cols/B⌉ − 1 rounds in all. Results are bit-identical
// to the row-major sequential oracle regardless of procs. A NaN or ±Inf in the solution fails with
// ErrGrid2DNonFinite; malformed systems fail with ErrInvalidSystem.
func SolveGrid2DCtx(ctx context.Context, s *Grid2DSystem, opt SolveOptions) (*Grid2DResult, error) {
	p, err := CompileGrid2DCtx(ctx, s)
	if err != nil {
		return nil, err
	}
	return SolveGrid2DPlanCtx(ctx, p, s, opt)
}
