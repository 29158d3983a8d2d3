package grid2d

import (
	"errors"
	"fmt"

	"indexedrec/internal/core"
)

// ErrNonFinite reports a grid solve whose output contains a NaN or ±Inf
// cell. It is a value-dependent overflow, not a malformed system, so it is
// distinct from core.ErrInvalidSystem (services map it to 422, not 400).
var ErrNonFinite = errors.New("grid2d: non-finite value in solution")

// maxGridDim bounds each grid dimension so cell counts and tile index
// arithmetic stay far from int overflow on every platform.
const maxGridDim = 1 << 24

// Ring selects the float64 semiring (⊕, ⊗) a grid system folds with.
type Ring uint8

const (
	// RingAffine is the ordinary affine ring: ⊕ = +, ⊗ = ×.
	RingAffine Ring = iota
	// RingMaxPlus is the tropical max-plus semiring: ⊕ = max, ⊗ = +
	// (best-score dynamic programming, e.g. Smith–Waterman).
	RingMaxPlus
	// RingMinPlus is the tropical min-plus semiring: ⊕ = min, ⊗ = +
	// (least-cost dynamic programming, e.g. edit distance).
	RingMinPlus

	numRings
)

// String names the ring as it appears on the wire and in plan fingerprints.
func (r Ring) String() string {
	switch r {
	case RingAffine:
		return "affine"
	case RingMaxPlus:
		return "maxplus"
	case RingMinPlus:
		return "minplus"
	}
	return fmt.Sprintf("ring(%d)", uint8(r))
}

// RingByName parses a wire semiring name ("affine", "maxplus", "minplus").
func RingByName(name string) (Ring, error) {
	switch name {
	case "affine", "":
		return RingAffine, nil
	case "maxplus":
		return RingMaxPlus, nil
	case "minplus":
		return RingMinPlus, nil
	}
	return 0, fmt.Errorf("%w: unknown semiring %q (want affine, maxplus, or minplus)",
		core.ErrInvalidSystem, name)
}

// semiring returns the ring's core algebra with its concrete tile kernel;
// the zero-size types box into the interface without allocating.
func (r Ring) semiring() core.GridKernel {
	switch r {
	case RingMaxPlus:
		return core.MaxPlusF64{}
	case RingMinPlus:
		return core.MinPlusF64{}
	}
	return core.RingF64{}
}

// Term-presence bits of a System (and of the plans compiled from it). The
// mask is structural: it is part of the plan fingerprint, and the tile
// kernels branch on grid nil-ness exactly as the mask describes.
const (
	// TermA marks the up term a[i,j] ⊗ w[i-1,j].
	TermA uint8 = 1 << iota
	// TermB marks the left term b[i,j] ⊗ w[i,j-1].
	TermB
	// TermD marks the diagonal term d[i,j] ⊗ w[i-1,j-1].
	TermD
	// TermC marks the additive constant c[i,j].
	TermC
)

// System is one 2-D recurrence grid: per-cell coefficient grids for the
// terms present (nil slice = term absent everywhere), the boundary row and
// column the first interior row/column read, and the semiring to fold with.
// All grids are row-major Rows×Cols.
type System struct {
	// Rows and Cols are the interior grid dimensions (both ≥ 1).
	Rows, Cols int
	// Ring selects the semiring the recurrence folds with.
	Ring Ring
	// A scales the up neighbour w[i-1,j]; nil omits the term.
	A []float64
	// B scales the left neighbour w[i,j-1]; nil omits the term.
	B []float64
	// D scales the diagonal neighbour w[i-1,j-1]; nil omits the term.
	D []float64
	// C is the per-cell constant term; nil omits it.
	C []float64
	// North is the boundary row w[-1,j], length Cols.
	North []float64
	// West is the boundary column w[i,-1], length Rows.
	West []float64
	// NW is the corner boundary w[-1,-1] read by cell (0,0)'s diagonal
	// term.
	NW float64
}

// Result is one grid solution.
type Result struct {
	// Values is the solved interior grid, row-major Rows×Cols.
	Values []float64
	// Rounds is the number of tile rounds (see Plan.Rounds).
	Rounds int
	// Cells is the number of interior cells solved.
	Cells int64
}

// TermMask packs the system's term presence into the structural bits
// TermA..TermC.
func (s *System) TermMask() uint8 {
	var m uint8
	if s.A != nil {
		m |= TermA
	}
	if s.B != nil {
		m |= TermB
	}
	if s.D != nil {
		m |= TermD
	}
	if s.C != nil {
		m |= TermC
	}
	return m
}

// Validate checks the system's shape: positive dimensions, a known ring, at
// least one term, coefficient grids of exactly Rows×Cols cells, boundary
// vectors of the right length, and finite boundary values. It is O(Rows +
// Cols): coefficient grids are not scanned here — value overflow surfaces
// as ErrNonFinite from the output probe instead. All errors wrap
// core.ErrInvalidSystem.
func (s *System) Validate() error {
	if s == nil {
		return fmt.Errorf("%w: nil grid system", core.ErrInvalidSystem)
	}
	if s.Rows < 1 || s.Cols < 1 {
		return fmt.Errorf("%w: grid dimensions %dx%d (both must be >= 1)",
			core.ErrInvalidSystem, s.Rows, s.Cols)
	}
	if s.Rows > maxGridDim || s.Cols > maxGridDim {
		return fmt.Errorf("%w: grid dimensions %dx%d exceed the limit %d per side",
			core.ErrInvalidSystem, s.Rows, s.Cols, maxGridDim)
	}
	if s.Ring >= numRings {
		return fmt.Errorf("%w: unknown ring %d", core.ErrInvalidSystem, s.Ring)
	}
	if s.TermMask() == 0 {
		return fmt.Errorf("%w: grid system has no terms (need at least one of a, b, diag, c)",
			core.ErrInvalidSystem)
	}
	cells := s.Rows * s.Cols
	for _, g := range [...]struct {
		name string
		grid []float64
	}{{"a", s.A}, {"b", s.B}, {"diag", s.D}, {"c", s.C}} {
		if g.grid != nil && len(g.grid) != cells {
			return fmt.Errorf("%w: coefficient grid %q has %d cells, want %dx%d = %d",
				core.ErrInvalidSystem, g.name, len(g.grid), s.Rows, s.Cols, cells)
		}
	}
	if len(s.North) != s.Cols {
		return fmt.Errorf("%w: north boundary has %d cells, want cols = %d",
			core.ErrInvalidSystem, len(s.North), s.Cols)
	}
	if len(s.West) != s.Rows {
		return fmt.Errorf("%w: west boundary has %d cells, want rows = %d",
			core.ErrInvalidSystem, len(s.West), s.Rows)
	}
	if !isFinite(s.NW) {
		return fmt.Errorf("%w: non-finite northwest boundary", core.ErrInvalidSystem)
	}
	for j, v := range s.North {
		if !isFinite(v) {
			return fmt.Errorf("%w: non-finite north boundary at column %d",
				core.ErrInvalidSystem, j)
		}
	}
	for i, v := range s.West {
		if !isFinite(v) {
			return fmt.Errorf("%w: non-finite west boundary at row %d",
				core.ErrInvalidSystem, i)
		}
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf. v-v is 0 for every
// finite v and NaN otherwise, so the test compiles to two instructions and
// the tile kernels sum it over their cells without branching per cell.
func isFinite(v float64) bool {
	return v-v == 0
}

// neighbours returns the up/left/diagonal operands of interior cell (i, j),
// pulling from the boundary vectors along the first row and column.
func (s *System) neighbours(out []float64, i, j int) (up, left, diag float64) {
	c := s.Cols
	if i == 0 {
		up = s.North[j]
	} else {
		up = out[(i-1)*c+j]
	}
	if j == 0 {
		left = s.West[i]
	} else {
		left = out[i*c+j-1]
	}
	switch {
	case i == 0 && j == 0:
		diag = s.NW
	case i == 0:
		diag = s.North[j-1]
	case j == 0:
		diag = s.West[i-1]
	default:
		diag = out[(i-1)*c+j-1]
	}
	return up, left, diag
}

// SolveSequential is the reference oracle: a plain row-major sweep through
// interface-dispatched per-cell updates in the canonical term order every
// kernel folds, so all paths produce bit-identical values. Rounds is the
// tile schedule's, as a replay reports. It checks the wavefront engine.
func SolveSequential(s *System) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ring := s.Ring.semiring()
	out := make([]float64, s.Rows*s.Cols)
	for i := 0; i < s.Rows; i++ {
		for j := 0; j < s.Cols; j++ {
			up, left, diag := s.neighbours(out, i, j)
			out[i*s.Cols+j] = core.GridCell(ring, s.A, s.B, s.D, s.C, i*s.Cols+j, up, left, diag)
		}
	}
	if err := checkFinite(out, s.Cols); err != nil {
		return nil, err
	}
	return &Result{
		Values: out,
		Rounds: newPlan(s, TileSide(s.Rows, s.Cols)).Rounds(),
		Cells:  int64(s.Rows) * int64(s.Cols),
	}, nil
}

// checkFinite scans a row-major solution and reports the first non-finite
// cell in row-major order — the order both the oracle and a flagged
// replay's rescan use, so every path names the same cell.
func checkFinite(out []float64, cols int) error {
	for k, v := range out {
		if !isFinite(v) {
			return fmt.Errorf("%w: cell (%d,%d)", ErrNonFinite, k/cols, k%cols)
		}
	}
	return nil
}
