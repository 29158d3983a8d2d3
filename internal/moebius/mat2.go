package moebius

import "math"

// Mat2 is a 2×2 real matrix [[A, B], [C, D]] representing the Möbius map
// x ↦ (A·x + B) / (C·x + D).
type Mat2 struct {
	A, B, C, D float64
}

// Identity returns the matrix of the identity map.
func Identity() Mat2 { return Mat2{A: 1, D: 1} }

// Affine returns the matrix of x ↦ a·x + b.
func Affine(a, b float64) Mat2 { return Mat2{A: a, B: b, C: 0, D: 1} }

// Det returns the determinant AD − BC.
func (m Mat2) Det() float64 { return m.A*m.D - m.B*m.C }

// Mul returns the matrix product m·n (composition: m outer, n inner).
func (m Mat2) Mul(n Mat2) Mat2 {
	return Mat2{
		A: m.A*n.A + m.B*n.C,
		B: m.A*n.B + m.B*n.D,
		C: m.C*n.A + m.D*n.C,
		D: m.C*n.B + m.D*n.D,
	}
}

// Apply evaluates the Möbius map at x. Division by zero follows IEEE 754
// (yields ±Inf or NaN), matching what the sequential loop would produce.
func (m Mat2) Apply(x float64) float64 {
	return (m.A*x + m.B) / (m.C*x + m.D)
}

// normLim is the entry magnitude at which normScale rescales a matrix.
const normLim = 1e150

// normScale rescales a matrix when entries grow huge. A Möbius map is
// projective — scaling all four entries leaves Apply unchanged — so this
// guards long chains against float overflow without altering semantics.
// The all-small test here is the hot path: its branches are almost always
// taken the same way (unlike a running-max reduction, whose comparisons
// flip unpredictably), it is branchless-Abs only, and "every |entry| <
// normLim" is exactly "max |entry| < normLim" — NaN entries fail the
// comparison and fall through to rescale's explicit guards.
func (m Mat2) normScale() Mat2 {
	if math.Abs(m.A) < normLim && math.Abs(m.B) < normLim &&
		math.Abs(m.C) < normLim && math.Abs(m.D) < normLim {
		return m
	}
	return m.rescale()
}

// rescale is normScale's cold half: some |entry| is ≥ normLim, non-finite,
// or NaN. Division by the max keeps the map unchanged projectively; Inf and
// NaN maxima are left alone (scaling by 0 or NaN would corrupt the map).
func (m Mat2) rescale() Mat2 {
	a1, a2, a3, a4 := math.Abs(m.A), math.Abs(m.B), math.Abs(m.C), math.Abs(m.D)
	a := a1
	if a2 > a {
		a = a2
	}
	if a3 > a {
		a = a3
	}
	if a4 > a {
		a = a4
	}
	if a < normLim || math.IsInf(a, 0) ||
		a1 != a1 || a2 != a2 || a3 != a3 || a4 != a4 {
		return m
	}
	s := 1 / a
	return Mat2{A: m.A * s, B: m.B * s, C: m.C * s, D: m.D * s}
}

// ChainOp is the semigroup fed to ordinary.Solve: the paper's guarded
// product ⊙ in reversed (chain) order. Combine(a, b) = b when det(b) = 0
// (b is a constant map and b is the outer factor), else b·a.
type ChainOp struct{}

// Name implements core.Semigroup.
func (ChainOp) Name() string { return "moebius-chain" }

// Combine implements core.Semigroup; see the package comment for the order
// and guard rationale.
func (ChainOp) Combine(a, b Mat2) Mat2 {
	if b.Det() == 0 {
		return b
	}
	return b.Mul(a).normScale()
}

// Identity implements core.Monoid.
func (ChainOp) Identity() Mat2 { return Identity() }

// The Kernel methods below are ChainOp's monomorphized fast path: the same
// guarded product ⊙, inlined over Mat2 slices so the solvers' hot combine
// loops skip per-element interface dispatch. Each loop body calls exactly
// Combine's code path (det guard, Mul, normScale), so results are
// bit-identical to the generic loops.

// CombineGathered implements core.Kernel. The [lo, hi) re-slice lets the
// compiler drop the per-element bounds checks on the pair arrays.
func (o ChainOp) CombineGathered(v, src []Mat2, dst []int32, lo, hi int) {
	dst, src = dst[lo:hi], src[lo:hi]
	for k := range dst {
		x := dst[k]
		b := v[x]
		if b.Det() == 0 {
			continue
		}
		v[x] = b.Mul(src[k]).normScale()
	}
}

// CombineScatter implements core.Kernel. Same bounds-check treatment as
// CombineGathered.
func (o ChainOp) CombineScatter(v, from []Mat2, dst, src []int32, lo, hi int) {
	dst, src = dst[lo:hi], src[lo:hi]
	for k := range dst {
		x := dst[k]
		b := v[x]
		if b.Det() == 0 {
			continue
		}
		v[x] = b.Mul(from[src[k]]).normScale()
	}
}

// FoldSeg implements core.Kernel: the ascending guarded-product fold of the
// blocked scan's segment-reduce phase. The Möbius plans compile with the
// pointer-jumping schedule today (their float bit-identity contract pins the
// jumping association), so this path is exercised by the kernel conformance
// tests and ready for a future blocked Mat2 schedule.
func (o ChainOp) FoldSeg(acc Mat2, from []Mat2, idx []int32, lo, hi int) Mat2 {
	for k := lo; k < hi; k++ {
		b := from[idx[k]]
		if b.Det() == 0 {
			acc = b
			continue
		}
		acc = b.Mul(acc).normScale()
	}
	return acc
}

// ScanSeg implements core.Kernel: FoldSeg with every intermediate stored —
// the blocked scan's prefix-apply phase. v and from may alias; each slot is
// read before it is written.
func (o ChainOp) ScanSeg(v []Mat2, acc Mat2, from []Mat2, idx []int32, lo, hi int) Mat2 {
	for k := lo; k < hi; k++ {
		x := idx[k]
		b := from[x]
		if b.Det() != 0 {
			b = b.Mul(acc).normScale()
		}
		acc = b
		v[x] = acc
	}
	return acc
}

// FoldRun implements core.Kernel: FoldSeg over a contiguous run.
func (o ChainOp) FoldRun(acc Mat2, from []Mat2) Mat2 {
	for _, b := range from {
		if b.Det() == 0 {
			acc = b
			continue
		}
		acc = b.Mul(acc).normScale()
	}
	return acc
}

// ScanRun implements core.Kernel: ScanSeg over a contiguous run. v and from
// may be the same slice; each slot is read before it is written.
func (o ChainOp) ScanRun(v []Mat2, acc Mat2, from []Mat2) Mat2 {
	v = v[:len(from)]
	for k, b := range from {
		if b.Det() != 0 {
			b = b.Mul(acc).normScale()
		}
		acc = b
		v[k] = acc
	}
	return acc
}

// JumpRound implements core.Kernel.
func (o ChainOp) JumpRound(v2, v []Mat2, nx []int, cells []int, lo, hi int) int {
	combines := 0
	for k := lo; k < hi; k++ {
		x := cells[k]
		n := nx[x]
		if n < 0 {
			v2[x] = v[x]
			continue
		}
		combines++
		b := v[x]
		if b.Det() == 0 {
			v2[x] = b
			continue
		}
		v2[x] = b.Mul(v[n]).normScale()
	}
	return combines
}
