package core

// Kernel is the optional monomorphized fast path of a Semigroup: an op that
// also implements Kernel[T] supplies batch combine loops specialized to its
// concrete element type, bypassing the per-element interface dispatch of
// the generic solver loops. The solvers type-assert for it once per solve
// and fall back to op.Combine element loops when absent (or when kernels
// are disabled for differential testing); a kernel's loops MUST be
// observationally identical to calling Combine per element — same operand
// order, same float semantics — so results stay bit-identical either way.
//
// All methods operate on the half-open index range [lo, hi) of their
// schedule slices, matching the chunk protocol of parallel.ForCtx.
type Kernel[T any] interface {
	Semigroup[T]
	// CombineGathered applies v[dst[k]] = Combine(src[k], v[dst[k]]) for
	// every k in [lo, hi): the apply half of a gather-then-apply round,
	// where src holds pre-round source values gathered by index k.
	CombineGathered(v, src []T, dst []int32, lo, hi int)
	// CombineScatter applies v[dst[k]] = Combine(from[src[k]], v[dst[k]])
	// for every k in [lo, hi), with from unwritten by the round (the
	// initialization fold, and round pairs whose source is not itself
	// written this round).
	CombineScatter(v, from []T, dst, src []int32, lo, hi int)
	// JumpRound runs one double-buffered pointer-jumping round over the
	// cells slice restricted to [lo, hi): for each x = cells[k] with
	// nx[x] >= 0 it sets v2[x] = Combine(v[nx[x]], v[x]); cells with
	// nx[x] < 0 copy v[x] forward. It returns the combine count so the
	// caller can maintain Result.Combines. Pointer bookkeeping (nx2, rt2)
	// stays with the generic caller.
	JumpRound(v2, v []T, nx []int, cells []int, lo, hi int) int
	// FoldSeg runs the ascending sequential fold
	// acc = Combine(acc, from[idx[k]]) for every k in [lo, hi) and returns
	// the final acc — the segment-reduce phase of the blocked (work-optimal)
	// scan schedule, where idx is the chain-major cell sequence.
	FoldSeg(acc T, from []T, idx []int32, lo, hi int) T
	// ScanSeg runs the same ascending fold as FoldSeg but also stores every
	// intermediate: acc = Combine(acc, from[idx[k]]); v[idx[k]] = acc — the
	// prefix-apply phase of the blocked scan. v and from may alias (the
	// primed replay path): each slot is read before it is written, and no
	// slot is visited twice. Returns the final acc.
	ScanSeg(v []T, acc T, from []T, idx []int32, lo, hi int) T
	// FoldRun is FoldSeg over a contiguous run: acc = Combine(acc, from[k])
	// for every k in ascending order, returning the final acc — the reduce
	// phase of a run-form blocked plan, whose chains are ascending runs of
	// consecutive cells and need no index table.
	FoldRun(acc T, from []T) T
	// ScanRun is ScanSeg over a contiguous run: acc = Combine(acc, from[k]);
	// v[k] = acc for every k in ascending order, with len(v) == len(from).
	// v and from may be the same slice (primed replays): each slot is read
	// before it is written. Returns the final acc.
	ScanRun(v []T, acc T, from []T) T
}

// CombineGathered implements Kernel for int64 sums.
func (o IntAdd) CombineGathered(v, src []int64, dst []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] += src[k]
	}
}

// CombineScatter implements Kernel for int64 sums.
func (o IntAdd) CombineScatter(v, from []int64, dst, src []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] += from[src[k]]
	}
}

// JumpRound implements Kernel for int64 sums.
func (o IntAdd) JumpRound(v2, v []int64, nx []int, cells []int, lo, hi int) int {
	combines := 0
	for k := lo; k < hi; k++ {
		x := cells[k]
		if n := nx[x]; n >= 0 {
			v2[x] = v[n] + v[x]
			combines++
		} else {
			v2[x] = v[x]
		}
	}
	return combines
}

// FoldSeg implements Kernel for int64 sums.
func (o IntAdd) FoldSeg(acc int64, from []int64, idx []int32, lo, hi int) int64 {
	for k := lo; k < hi; k++ {
		acc += from[idx[k]]
	}
	return acc
}

// ScanSeg implements Kernel for int64 sums.
func (o IntAdd) ScanSeg(v []int64, acc int64, from []int64, idx []int32, lo, hi int) int64 {
	for k := lo; k < hi; k++ {
		x := idx[k]
		acc += from[x]
		v[x] = acc
	}
	return acc
}

// FoldRun implements Kernel for int64 sums.
func (o IntAdd) FoldRun(acc int64, from []int64) int64 {
	for _, x := range from {
		acc += x
	}
	return acc
}

// ScanRun implements Kernel for int64 sums.
func (o IntAdd) ScanRun(v []int64, acc int64, from []int64) int64 {
	v = v[:len(from)]
	for k, x := range from {
		acc += x
		v[k] = acc
	}
	return acc
}

// CombineGathered implements Kernel for float64 sums.
func (o Float64Add) CombineGathered(v, src []float64, dst []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] = src[k] + v[dst[k]]
	}
}

// CombineScatter implements Kernel for float64 sums.
func (o Float64Add) CombineScatter(v, from []float64, dst, src []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] = from[src[k]] + v[dst[k]]
	}
}

// JumpRound implements Kernel for float64 sums.
func (o Float64Add) JumpRound(v2, v []float64, nx []int, cells []int, lo, hi int) int {
	combines := 0
	for k := lo; k < hi; k++ {
		x := cells[k]
		if n := nx[x]; n >= 0 {
			v2[x] = v[n] + v[x]
			combines++
		} else {
			v2[x] = v[x]
		}
	}
	return combines
}

// FoldSeg implements Kernel for float64 sums.
func (o Float64Add) FoldSeg(acc float64, from []float64, idx []int32, lo, hi int) float64 {
	for k := lo; k < hi; k++ {
		acc = acc + from[idx[k]]
	}
	return acc
}

// ScanSeg implements Kernel for float64 sums.
func (o Float64Add) ScanSeg(v []float64, acc float64, from []float64, idx []int32, lo, hi int) float64 {
	for k := lo; k < hi; k++ {
		x := idx[k]
		acc = acc + from[x]
		v[x] = acc
	}
	return acc
}

// FoldRun implements Kernel for float64 sums.
func (o Float64Add) FoldRun(acc float64, from []float64) float64 {
	for _, x := range from {
		acc = acc + x
	}
	return acc
}

// ScanRun implements Kernel for float64 sums.
func (o Float64Add) ScanRun(v []float64, acc float64, from []float64) float64 {
	v = v[:len(from)]
	for k, x := range from {
		acc = acc + x
		v[k] = acc
	}
	return acc
}

// CombineGathered implements Kernel for float64 minima.
func (o Float64Min) CombineGathered(v, src []float64, dst []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] = o.Combine(src[k], v[dst[k]])
	}
}

// CombineScatter implements Kernel for float64 minima.
func (o Float64Min) CombineScatter(v, from []float64, dst, src []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] = o.Combine(from[src[k]], v[dst[k]])
	}
}

// JumpRound implements Kernel for float64 minima.
func (o Float64Min) JumpRound(v2, v []float64, nx []int, cells []int, lo, hi int) int {
	combines := 0
	for k := lo; k < hi; k++ {
		x := cells[k]
		if n := nx[x]; n >= 0 {
			v2[x] = o.Combine(v[n], v[x])
			combines++
		} else {
			v2[x] = v[x]
		}
	}
	return combines
}

// FoldSeg implements Kernel for float64 minima.
func (o Float64Min) FoldSeg(acc float64, from []float64, idx []int32, lo, hi int) float64 {
	for k := lo; k < hi; k++ {
		acc = o.Combine(acc, from[idx[k]])
	}
	return acc
}

// ScanSeg implements Kernel for float64 minima.
func (o Float64Min) ScanSeg(v []float64, acc float64, from []float64, idx []int32, lo, hi int) float64 {
	for k := lo; k < hi; k++ {
		x := idx[k]
		acc = o.Combine(acc, from[x])
		v[x] = acc
	}
	return acc
}

// FoldRun implements Kernel for float64 minima.
func (o Float64Min) FoldRun(acc float64, from []float64) float64 {
	for _, x := range from {
		acc = o.Combine(acc, x)
	}
	return acc
}

// ScanRun implements Kernel for float64 minima.
func (o Float64Min) ScanRun(v []float64, acc float64, from []float64) float64 {
	v = v[:len(from)]
	for k, x := range from {
		acc = o.Combine(acc, x)
		v[k] = acc
	}
	return acc
}

// CombineGathered implements Kernel for float64 maxima.
func (o Float64Max) CombineGathered(v, src []float64, dst []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] = o.Combine(src[k], v[dst[k]])
	}
}

// CombineScatter implements Kernel for float64 maxima.
func (o Float64Max) CombineScatter(v, from []float64, dst, src []int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		v[dst[k]] = o.Combine(from[src[k]], v[dst[k]])
	}
}

// JumpRound implements Kernel for float64 maxima.
func (o Float64Max) JumpRound(v2, v []float64, nx []int, cells []int, lo, hi int) int {
	combines := 0
	for k := lo; k < hi; k++ {
		x := cells[k]
		if n := nx[x]; n >= 0 {
			v2[x] = o.Combine(v[n], v[x])
			combines++
		} else {
			v2[x] = v[x]
		}
	}
	return combines
}

// FoldSeg implements Kernel for float64 maxima.
func (o Float64Max) FoldSeg(acc float64, from []float64, idx []int32, lo, hi int) float64 {
	for k := lo; k < hi; k++ {
		acc = o.Combine(acc, from[idx[k]])
	}
	return acc
}

// ScanSeg implements Kernel for float64 maxima.
func (o Float64Max) ScanSeg(v []float64, acc float64, from []float64, idx []int32, lo, hi int) float64 {
	for k := lo; k < hi; k++ {
		x := idx[k]
		acc = o.Combine(acc, from[x])
		v[x] = acc
	}
	return acc
}

// FoldRun implements Kernel for float64 maxima.
func (o Float64Max) FoldRun(acc float64, from []float64) float64 {
	for _, x := range from {
		acc = o.Combine(acc, x)
	}
	return acc
}

// ScanRun implements Kernel for float64 maxima.
func (o Float64Max) ScanRun(v []float64, acc float64, from []float64) float64 {
	v = v[:len(from)]
	for k, x := range from {
		acc = o.Combine(acc, x)
		v[k] = acc
	}
	return acc
}

// Kernel conformance of the hot monoids.
var (
	_ Kernel[int64]   = IntAdd{}
	_ Kernel[float64] = Float64Add{}
	_ Kernel[float64] = Float64Min{}
	_ Kernel[float64] = Float64Max{}
)
