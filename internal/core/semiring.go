package core

import "math"

// The float64 semirings the 2-D grid family (internal/grid2d) folds with.
// Natale's wavefront decomposition is algebra-agnostic: the cell update
// w[i,j] = (a ⊗ w[i-1,j]) ⊕ (b ⊗ w[i,j-1]) ⊕ (d ⊗ w[i-1,j-1]) ⊕ c only
// needs (⊕, ⊗) to distribute, so the op classification lives here in the
// kernel layer — the affine ring for linear recurrences, max-plus and
// min-plus for dynamic programming — instead of in one solver.

// Semiring is a float64 semiring: the (⊕, ⊗) pair a 2-D recurrence cell
// update folds with. Implementations must be stateless value types; both
// methods must be pure so every dispatch path computes bit-identical
// results.
type Semiring interface {
	// SemiringName names the algebra as it appears on the wire and in plan
	// fingerprints ("affine", "maxplus", "minplus").
	SemiringName() string
	// Plus is ⊕, the combining operation (+, max, or min).
	Plus(x, y float64) float64
	// Times is ⊗, the scaling operation (×, or + for the tropical pair).
	Times(x, y float64) float64
}

// RingF64 is the ordinary affine ring: ⊕ = +, ⊗ = ×. It solves the linear
// grid recurrence w = a·up + b·left + d·diag + c.
type RingF64 struct{}

// SemiringName returns "affine".
func (RingF64) SemiringName() string { return "affine" }

// Plus returns x + y.
func (RingF64) Plus(x, y float64) float64 { return x + y }

// Times returns x · y.
func (RingF64) Times(x, y float64) float64 { return x * y }

// MaxPlusF64 is the max-plus tropical semiring: ⊕ = max, ⊗ = +. It turns
// the grid recurrence into a best-score dynamic program (Smith–Waterman,
// longest paths).
type MaxPlusF64 struct{}

// SemiringName returns "maxplus".
func (MaxPlusF64) SemiringName() string { return "maxplus" }

// Plus returns max(x, y); on a NaN operand the comparison fails closed and
// x wins, identically on every dispatch path.
func (MaxPlusF64) Plus(x, y float64) float64 {
	if y > x {
		return y
	}
	return x
}

// Times returns x + y.
func (MaxPlusF64) Times(x, y float64) float64 { return x + y }

// MinPlusF64 is the min-plus tropical semiring: ⊕ = min, ⊗ = +. It turns
// the grid recurrence into a least-cost dynamic program (edit distance,
// shortest paths).
type MinPlusF64 struct{}

// SemiringName returns "minplus".
func (MinPlusF64) SemiringName() string { return "minplus" }

// Plus returns min(x, y); on a NaN operand the comparison fails closed and
// x wins, identically on every dispatch path.
func (MinPlusF64) Plus(x, y float64) float64 {
	if y < x {
		return y
	}
	return x
}

// Times returns x + y.
func (MinPlusF64) Times(x, y float64) float64 { return x + y }

// GridFrame is one grid solve as the kernels see it: the row-major output W
// with Cols columns, the coefficient grids in the same layout (nil = term
// absent), and the boundary row, column and corner.
type GridFrame struct {
	Cols        int
	W           []float64
	A, B, D, C  []float64
	North, West []float64
	NW          float64
}

// row returns row i of the tile spanning columns [j0, j1) — the output row,
// the row above, the coefficient rows (nil when absent), and the first
// cell's left and diagonal neighbours — resliced so loops skip bounds checks.
func (f *GridFrame) row(i, j0, j1 int) (out, up, a, b, d, c []float64, left, diag float64) {
	k := i * f.Cols
	cut := func(g []float64) []float64 {
		if g == nil {
			return nil
		}
		return g[k+j0 : k+j1]
	}
	above, corner := f.North, f.NW // row i-1 and its west boundary
	if i > 0 {
		above, corner = f.W[k-f.Cols:k], f.West[i-1]
	}
	out, up, left, diag = f.W[k+j0:k+j1], above[j0:j1], f.West[i], corner
	if j0 > 0 {
		left, diag = f.W[k+j0-1], above[j0-1]
	}
	return out, up, cut(f.A), cut(f.B), cut(f.D), cut(f.C), left, diag
}

// GridKernel is the grid family's analogue of Kernel: a tile fold written
// out per semiring, because a generic fold would be one instantiation for
// all three struct{} rings (one GC shape) calling ⊕ and ⊗ through its
// dictionary. GridKernelGeneric is the interface-dispatch twin. Every
// kernel folds each cell in GridCell's canonical order, so all are
// bit-identical — which is exactly what the grid2d kernel toggle asserts.
type GridKernel interface {
	Semiring
	// Tile solves rows [i0, i1) × columns [j0, j1) of f.W in row-major
	// order, reading the cells above and left of the tile from W (or the
	// boundaries), so those must already be solved. It returns the sum of
	// v-v over the cells it wrote: 0 when all are finite, NaN otherwise.
	Tile(f *GridFrame, i0, i1, j0, j1 int) float64
}

// GridCell folds one cell update in the canonical term order — up, left,
// diagonal, constant, ⊕-folded left-associatively over the present terms —
// through interface dispatch. It is the sequential oracle's per-cell step
// and GridKernelGeneric's; the concrete tile kernels spell out the same
// steps per ring.
func GridCell(ring Semiring, a, b, d, c []float64, cof int, up, left, diag float64) float64 {
	var acc float64
	has := false
	if a != nil {
		acc = ring.Times(a[cof], up)
		has = true
	}
	if b != nil {
		v := ring.Times(b[cof], left)
		if has {
			acc = ring.Plus(acc, v)
		} else {
			acc, has = v, true
		}
	}
	if d != nil {
		v := ring.Times(d[cof], diag)
		if has {
			acc = ring.Plus(acc, v)
		} else {
			acc, has = v, true
		}
	}
	if c != nil {
		if has {
			acc = ring.Plus(acc, c[cof])
		} else {
			acc = c[cof]
		}
	}
	return acc
}

// negZero is the tropical ⊗ identity for the constant term: c + (-0) is c
// bit for bit, where c + 0 turns -0 into +0 (the affine kernel uses c · 1).
var negZero = math.Copysign(0, -1)

// Tile implements GridKernel for the affine ring.
func (r RingF64) Tile(f *GridFrame, i0, i1, j0, j1 int) (bad float64) {
	for i := i0; i < i1; i++ {
		out, up, a, b, d, c, left, diag := f.row(i, j0, j1)
		for j, u := range up[:len(out)] {
			acc, has := r.step(0, false, a, j, u)
			acc, has = r.step(acc, has, b, j, left)
			acc, has = r.step(acc, has, d, j, diag)
			acc, _ = r.step(acc, has, c, j, 1)
			out[j], bad = acc, bad+(acc-acc)
			left, diag = acc, u
		}
	}
	return bad
}

// step folds the term g[j] ⊗ x into acc if the term is present, exactly as
// GridCell does.
func (RingF64) step(acc float64, has bool, g []float64, j int, x float64) (float64, bool) {
	if j >= len(g) {
		return acc, has
	}
	v := g[j] * x
	if has {
		return acc + v, true
	}
	return v, true
}

// Tile implements GridKernel for max-plus.
func (r MaxPlusF64) Tile(f *GridFrame, i0, i1, j0, j1 int) (bad float64) {
	for i := i0; i < i1; i++ {
		out, up, a, b, d, c, left, diag := f.row(i, j0, j1)
		for j, u := range up[:len(out)] {
			acc, has := r.step(0, false, a, j, u)
			acc, has = r.step(acc, has, b, j, left)
			acc, has = r.step(acc, has, d, j, diag)
			acc, _ = r.step(acc, has, c, j, negZero)
			out[j], bad = acc, bad+(acc-acc)
			left, diag = acc, u
		}
	}
	return bad
}

// step is RingF64.step for max-plus.
func (MaxPlusF64) step(acc float64, has bool, g []float64, j int, x float64) (float64, bool) {
	if j >= len(g) {
		return acc, has
	}
	if v := g[j] + x; !has || v > acc {
		return v, true
	}
	return acc, true
}

// Tile implements GridKernel for min-plus.
func (r MinPlusF64) Tile(f *GridFrame, i0, i1, j0, j1 int) (bad float64) {
	for i := i0; i < i1; i++ {
		out, up, a, b, d, c, left, diag := f.row(i, j0, j1)
		for j, u := range up[:len(out)] {
			acc, has := r.step(0, false, a, j, u)
			acc, has = r.step(acc, has, b, j, left)
			acc, has = r.step(acc, has, d, j, diag)
			acc, _ = r.step(acc, has, c, j, negZero)
			out[j], bad = acc, bad+(acc-acc)
			left, diag = acc, u
		}
	}
	return bad
}

// step is RingF64.step for min-plus.
func (MinPlusF64) step(acc float64, has bool, g []float64, j int, x float64) (float64, bool) {
	if j >= len(g) {
		return acc, has
	}
	if v := g[j] + x; !has || v < acc {
		return v, true
	}
	return acc, true
}

// gridGeneric is the interface-dispatch GridKernel over any Semiring.
type gridGeneric struct{ Semiring }

func (k gridGeneric) Tile(f *GridFrame, i0, i1, j0, j1 int) (bad float64) {
	for i := i0; i < i1; i++ {
		out, up, a, b, d, c, left, diag := f.row(i, j0, j1)
		for j, u := range up[:len(out)] {
			v := GridCell(k.Semiring, a, b, d, c, j, u, left, diag)
			out[j], bad = v, bad+(v-v)
			left, diag = v, u
		}
	}
	return bad
}

// GridKernelGeneric returns the interface-dispatch tile kernel over ring,
// the path grid2d.SetKernelsEnabled(false) falls back to.
func GridKernelGeneric(ring Semiring) GridKernel {
	return gridGeneric{ring}
}
