package core

import (
	"errors"
	"fmt"

	"indexedrec/internal/graph"
)

// ErrInvalidSparse wraps all sparse-encoding validation failures: unsorted or
// duplicate touched-cell lists, cells out of the global range, or a compact
// system that does not fit its cell list. It is deliberately distinct from
// ErrInvalidSystem so transports can map sparse-encoding defects to their own
// status (irserved returns 422 for these, 400 for plain system defects).
var ErrInvalidSparse = errors.New("core: invalid sparse system")

// SparseSystem is the compressed (CSR-like) form of an indexed recurrence
// system over a global array of M cells of which only len(Cells) — the
// touched set — are ever read or written. Cells holds the touched global
// indices sorted strictly ascending, and Compact is the same recurrence
// remapped onto compact ids 0..len(Cells)-1 (Compact.M == len(Cells)).
//
// The remapping is an order-preserving bijection between touched global
// cells and compact ids, and the f/g/h maps only ever reference touched
// cells, so the compact system's dependence structure — last-writer links,
// chain forest, chain ordering, schedule selection, combine order — is
// isomorphic to the dense system's restricted to touched cells. Solving
// Compact and reading the results through Cells is therefore bit-identical
// to solving the dense expansion, while compile and solve walks cost O(n)
// instead of O(m). See DESIGN §16.
type SparseSystem struct {
	// M is the global cell count of the dense array the system addresses.
	M int
	// Cells lists the touched global cell indices, strictly ascending.
	Cells []int
	// Compact is the recurrence over compact ids; Compact.M == len(Cells).
	Compact *System
}

// CompressSystem converts a dense system to its sparse form: the touched set
// is the union of the G, F, and H images, and the compact maps are the dense
// maps pushed through the touched set's rank function. The input is not
// mutated. Systems touching zero cells (N == 0) have no sparse form and are
// rejected; callers should keep such degenerate solves on the dense path.
func CompressSystem(s *System) (*SparseSystem, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return NewSparseSystem(s.M, s.G, s.F, s.H)
}

// NewSparseSystem builds a sparse system from global-id index maps without
// requiring a dense System value first: m is the global cell count, and g, f,
// h hold global cell indices per iteration (h may be nil for the ordinary
// form H = G). This is the generator-friendly constructor — workloads emit
// global maps and compression happens here, in O(n log n).
func NewSparseSystem(m int, g, f, h []int) (*SparseSystem, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: M = %d, want > 0", ErrInvalidSparse, m)
	}
	if len(f) != len(g) || (h != nil && len(h) != len(g)) {
		return nil, fmt.Errorf("%w: len(G)=%d len(F)=%d len(H)=%d, want equal",
			ErrInvalidSparse, len(g), len(f), len(h))
	}
	if len(g) == 0 {
		return nil, fmt.Errorf("%w: system touches no cells (N = 0); use the dense form", ErrInvalidSparse)
	}
	for name, idx := range map[string][]int{"G": g, "F": f, "H": h} {
		for i, v := range idx {
			if v < 0 || v >= m {
				return nil, fmt.Errorf("%w: %s[%d] = %d out of range [0,%d)",
					ErrInvalidSparse, name, i, v, m)
			}
		}
	}
	set, err := graph.BuildIndexSet(g, f, h)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSparse, err)
	}
	cg, err := set.Remap(g)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSparse, err)
	}
	cf, err := set.Remap(f)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSparse, err)
	}
	ch, err := set.Remap(h)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSparse, err)
	}
	return &SparseSystem{
		M:       m,
		Cells:   set.Cells(),
		Compact: &System{M: set.Len(), N: len(g), G: cg, F: cf, H: ch},
	}, nil
}

// SparseFromCompact builds a sparse system from an already-compressed wire
// encoding: the global cell count, the touched-cell list, and index maps over
// compact ids. It validates everything a hostile client could get wrong —
// cells must be strictly ascending (which catches both unsorted and duplicate
// lists) and within [0, m), and the compact ids must be within
// [0, len(cells)). Cells that no map references are permitted; they pass
// through a solve unchanged, carrying their init value. All failures wrap
// ErrInvalidSparse.
func SparseFromCompact(m int, cells, g, f, h []int) (*SparseSystem, error) {
	sp := &SparseSystem{
		M:       m,
		Cells:   cells,
		Compact: &System{M: len(cells), N: len(g), G: g, F: f, H: h},
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// Validate checks the sparse invariants: positive global size, a strictly
// ascending in-range touched-cell list, and a compact system whose cell count
// matches the list. It is the wire-decode gate, so every failure wraps
// ErrInvalidSparse (never ErrInvalidSystem).
func (sp *SparseSystem) Validate() error {
	if sp.M <= 0 {
		return fmt.Errorf("%w: M = %d, want > 0", ErrInvalidSparse, sp.M)
	}
	if len(sp.Cells) == 0 {
		return fmt.Errorf("%w: empty touched-cell list; use the dense form", ErrInvalidSparse)
	}
	for i, v := range sp.Cells {
		if v < 0 || v >= sp.M {
			return fmt.Errorf("%w: cells[%d] = %d out of range [0,%d)", ErrInvalidSparse, i, v, sp.M)
		}
		if i > 0 && v <= sp.Cells[i-1] {
			return fmt.Errorf("%w: cells[%d]=%d not strictly greater than cells[%d]=%d (touched cells must be sorted and distinct)",
				ErrInvalidSparse, i, v, i-1, sp.Cells[i-1])
		}
	}
	if sp.Compact == nil {
		return fmt.Errorf("%w: nil compact system", ErrInvalidSparse)
	}
	if sp.Compact.M != len(sp.Cells) {
		return fmt.Errorf("%w: compact M = %d, want len(cells) = %d",
			ErrInvalidSparse, sp.Compact.M, len(sp.Cells))
	}
	if err := sp.Compact.Validate(); err != nil {
		// Rewrap: a compact-id defect is a sparse-encoding defect, and the
		// transports key their status codes off ErrInvalidSparse.
		return fmt.Errorf("%w: compact system: %v", ErrInvalidSparse, err)
	}
	return nil
}

// NumCells returns the touched-cell count n_c = len(Cells), the size every
// sparse plan, arena, and schedule scales with.
func (sp *SparseSystem) NumCells() int { return len(sp.Cells) }

// Dense expands the sparse system back to the dense global form: index maps
// over global cell ids and M equal to the global cell count. It allocates
// O(n) (the maps), not O(m); only init/value arrays of a dense *solve* cost
// O(m). The receiver must be valid (builders guarantee this).
func (sp *SparseSystem) Dense() *System {
	expand := func(compact []int) []int {
		if compact == nil {
			return nil
		}
		out := make([]int, len(compact))
		for i, c := range compact {
			out[i] = sp.Cells[c]
		}
		return out
	}
	return &System{
		M: sp.M,
		N: sp.Compact.N,
		G: expand(sp.Compact.G),
		F: expand(sp.Compact.F),
		H: expand(sp.Compact.H),
	}
}

// Clone returns a deep copy of the sparse system.
func (sp *SparseSystem) Clone() *SparseSystem {
	return &SparseSystem{
		M:       sp.M,
		Cells:   append([]int(nil), sp.Cells...),
		Compact: sp.Compact.Clone(),
	}
}

// String summarizes the sparse shape for error messages and reports.
func (sp *SparseSystem) String() string {
	form := "general"
	if sp.Compact.Ordinary() {
		form = "ordinary"
	}
	return fmt.Sprintf("sparseIR{%s, n=%d, nc=%d, m=%d}", form, sp.Compact.N, len(sp.Cells), sp.M)
}

// ExpandInit scatters a touched-cell init slice (length NumCells, compact
// order) into a full global init array of length M, zero-valued elsewhere.
// Untouched cells are never read by any iteration, so the zero fill cannot
// influence touched results — this is what makes a dense solve of the
// expansion bit-identical to the compact solve.
func ExpandInit[T any](sp *SparseSystem, init []T) ([]T, error) {
	if len(init) != len(sp.Cells) {
		return nil, fmt.Errorf("%w: len(init) = %d, want touched-cell count %d",
			ErrInvalidSparse, len(init), len(sp.Cells))
	}
	full := make([]T, sp.M)
	for i, c := range sp.Cells {
		full[c] = init[i]
	}
	return full, nil
}

// GatherTouched gathers the touched cells of a full global value array
// (length M) into compact order — the inverse of ExpandInit, used to read a
// dense reference solve back into compact order for comparison.
func GatherTouched[T any](sp *SparseSystem, full []T) ([]T, error) {
	if len(full) != sp.M {
		return nil, fmt.Errorf("%w: len(values) = %d, want global cell count %d",
			ErrInvalidSparse, len(full), sp.M)
	}
	out := make([]T, len(sp.Cells))
	for i, c := range sp.Cells {
		out[i] = full[c]
	}
	return out, nil
}
