// Package grid2d solves 2-D indexed recurrence grids by wavefronts of
// cache-sized tiles (Natale, "On the Computation of 2-D Recurrence
// Equations"):
//
//	w[i,j] = (a[i,j] ⊗ w[i-1,j]) ⊕ (b[i,j] ⊗ w[i,j-1]) ⊕
//	         (d[i,j] ⊗ w[i-1,j-1]) ⊕ c[i,j]
//
// over a selectable float64 semiring (⊕, ⊗): the affine ring (+, ×) for
// linear grid recurrences, or the tropical max-plus / min-plus pairs that
// turn the same grid into a dynamic program — edit distance, Smith–Waterman
// and friends are Systems here, not bespoke solvers.
//
// # Tile schedule
//
// The grid is cut into B×B tiles, B = TileSide(Rows, Cols). A tile reads
// only the tiles above and left of it, so the tiles on one anti-diagonal of
// the tile grid are independent: a solve is ⌈Rows/B⌉ + ⌈Cols/B⌉ − 1
// parallel rounds. Inside a tile the ring's concrete core.GridKernel folds
// cells row-major, carrying the left and diagonal neighbours in registers
// and writing straight into the row-major result. The schedule comes from
// the system's structure alone — never machine properties — so plans and
// round counts agree across machines, and a plan holds no grid buffers.
// Every path is bit-identical to the SolveSequential oracle: all kernels
// fold each cell in core.GridCell's canonical order, and SetKernelsEnabled
// lets fuzzers prove it.
//
// # Finiteness
//
// Like the Möbius family, results must be finite: boundaries are checked by
// Validate, and each tile sums v-v over its cells (0 when all are finite).
// A solve whose probe fired rescans the result row-major after the last
// round — a later tile can hold an earlier bad cell — and fails with
// ErrNonFinite naming the first bad cell in row-major order, identically
// on every path.
package grid2d
