package ir

import (
	"context"

	"indexedrec/internal/core"
)

// Sparse systems: the compressed encoding for recurrences that touch only
// n ≪ m cells of a large array. A SparseSystem carries the sorted touched
// index set plus the recurrence remapped onto compact ids, so compilation,
// scheduling, arenas, and fingerprints are all sized by the touched count
// n_c rather than the global cell count m — turning O(m) walks into O(n)
// across the whole hot path while staying bit-identical to the dense solve
// (the compact relabeling is order-preserving, so the chain forest, schedule
// selection, and combine order are isomorphic; see DESIGN §16). A dense
// system is the special case whose touched set is every cell, so the
// services decode both encodings into one request shape and solve them on
// one path; the sparse form only changes the plan key and relabels cells at
// the edges.

// SparseSystem is the compressed (CSR-like) system form; see
// core.SparseSystem for the invariants and the bit-identity argument.
type SparseSystem = core.SparseSystem

// ErrInvalidSparse wraps sparse-encoding validation failures (unsorted,
// duplicate, or out-of-range touched-cell lists, compact ids out of range).
// It is distinct from ErrInvalidSystem so transports can map it separately;
// irserved answers 422 for sparse-encoding defects.
var ErrInvalidSparse = core.ErrInvalidSparse

// CompressSystem converts a dense system to the sparse form, collecting the
// touched index set and remapping g/f/h onto compact ids.
func CompressSystem(s *System) (*SparseSystem, error) { return core.CompressSystem(s) }

// NewSparseSystem builds a sparse system from global-id index maps (h may be
// nil for the ordinary form) without materializing a dense System.
func NewSparseSystem(m int, g, f, h []int) (*SparseSystem, error) {
	return core.NewSparseSystem(m, g, f, h)
}

// SparseFromCompact builds a sparse system from an already-compressed
// encoding (the wire shape): global cell count, touched-cell list, and index
// maps over compact ids. All defects wrap ErrInvalidSparse.
func SparseFromCompact(m int, cells, g, f, h []int) (*SparseSystem, error) {
	return core.SparseFromCompact(m, cells, g, f, h)
}

// SolveSparseOrdinaryCtx solves an ordinary sparse system in O(n_c) by
// solving its compact system directly. init is in compact order (length
// sp.NumCells()), as are the result values — index i corresponds to global
// cell sp.Cells[i]. The error contract matches SolveOrdinaryCtx.
func SolveSparseOrdinaryCtx[T any](ctx context.Context, sp *SparseSystem, op Semigroup[T], init []T, opt SolveOptions) (*OrdinaryResult[T], error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return SolveOrdinaryCtx(ctx, sp.Compact, op, init, opt)
}

// SolveSparseGeneralCtx solves a general-family sparse system; init and
// values are in compact order like SolveSparseOrdinaryCtx's. Power traces
// are also in compact order but name global cells in PowerTerm.Cell. The
// error contract matches SolveGeneralCtx.
func SolveSparseGeneralCtx[T any](ctx context.Context, sp *SparseSystem, op CommutativeMonoid[T], init []T, opt SolveOptions) (*GeneralResult[T], error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	res, err := SolveGeneralCtx(ctx, sp.Compact, op, init, opt)
	if err != nil {
		return nil, err
	}
	for _, terms := range res.Powers {
		for k := range terms {
			terms[k].Cell = sp.Cells[terms[k].Cell]
		}
	}
	return res, nil
}

// SparseFingerprint returns the canonical structure hash of a sparse system:
// a hash over (family, n, n_c, global m, touched cells, compact g/f/h,
// maxExponentBits), prefixed "sparse-<family>:". Like PlanFingerprint it is
// structure-only and machine-independent — two sparse solves share a
// fingerprint exactly when they can share a compiled plan — and it can never
// collide with a dense fingerprint (distinct prefix).
func SparseFingerprint(family Family, sp *SparseSystem, maxExponentBits int) string {
	hs := newStructHasher(family)
	hs.int(sp.Compact.N)
	hs.int(sp.Compact.M)
	hs.int(sp.M)
	hs.int(maxExponentBits)
	hs.slice('c', sp.Cells)
	hs.slice('g', sp.Compact.G)
	hs.slice('f', sp.Compact.F)
	hs.slice('h', sp.Compact.H)
	return hs.sum("sparse-" + family.String())
}

// CompileSparse compiles a sparse system into a Plan sized by the touched
// count. It is CompileSparseCtx with a background context.
func CompileSparse(sp *SparseSystem, opt CompileOptions) (*Plan, error) {
	return CompileSparseCtx(context.Background(), sp, opt)
}

// CompileSparseCtx compiles the compact system — chain forest, schedule,
// arenas all over touched cells only, so compile cost and plan size are
// O(n_c log n_c) regardless of the global cell count — and tags the plan
// with the touched-cell list and global size. The plan replays exactly like
// a dense plan over n_c cells: init and values are in compact order, and
// Plan.TouchedCells maps them back to global ids. Family selection and
// errors follow CompileCtx; the plan's cache key is SparseFingerprint's.
func CompileSparseCtx(ctx context.Context, sp *SparseSystem, opt CompileOptions) (*Plan, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	p, err := CompileCtx(ctx, sp.Compact, opt)
	if err != nil {
		return nil, err
	}
	p.cells = sp.Cells
	p.globalM = sp.M
	p.size += int64(len(sp.Cells)) * 8
	return p, nil
}

// Sparse reports whether the plan was compiled from a sparse system via
// CompileSparse; its M() is then the touched-cell count, not the global one.
func (p *Plan) Sparse() bool { return p.cells != nil }

// TouchedCells returns the sorted global cell ids a sparse plan's compact
// values correspond to (nil for dense plans). The slice is owned by the
// plan; callers must not mutate it.
func (p *Plan) TouchedCells() []int { return p.cells }

// GlobalM returns the global cell count of the array the plan addresses:
// the sparse system's full extent for sparse plans, and M() for dense ones.
func (p *Plan) GlobalM() int {
	if p.cells != nil {
		return p.globalM
	}
	return p.m
}
