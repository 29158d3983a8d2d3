package ir

import (
	"fmt"
	"strconv"

	"indexedrec/internal/jsonwire"
)

// Wire types: the JSON shapes a System and SolveOptions take on the network.
// internal/server and its client both marshal through these, so the service
// protocol is defined next to the API it transports rather than inside the
// server. The field names are the paper's (g, f, h over m cells, n
// iterations), lower-cased for JSON convention.

// Ints is an []int that decodes from JSON in one pass over its bytes rather
// than through encoding/json's reflection, element by element. It has the
// same wire form as []int: it has no MarshalJSON, so encoding/json encodes it
// by its kind, byte for byte as a plain []int. Decoding accepts what
// json.Unmarshal accepts into an []int, with one exception: a null element
// is rejected, where encoding/json would leave a zero in its place and so
// silently describe a different system. A null array still decodes to nil.
// A rejected element is reported as a *json.UnmarshalTypeError whose Offset
// is the element's byte offset in the input.
type Ints []int

// Int64s is the []int64 counterpart of Ints, with the same decoding rules.
type Int64s []int64

// UnmarshalJSON decodes a JSON array of integers (see Ints).
func (s *Ints) UnmarshalJSON(b []byte) error {
	v, err := jsonwire.Ints[int](b, strconv.IntSize)
	if err == nil {
		*s = v
	}
	return err
}

// UnmarshalJSON decodes a JSON array of integers (see Ints).
func (s *Int64s) UnmarshalJSON(b []byte) error {
	v, err := jsonwire.Ints[int64](b, 64)
	if err == nil {
		*s = v
	}
	return err
}

// SystemWire is the JSON form of a System — and, when Cells is present, of a
// SparseSystem: m is then the global cell count, cells the sorted touched
// global indices, and g/f/h index maps over compact ids 0..len(cells)-1.
// Init arrays accompanying a sparse wire system have length len(cells), in
// compact order, so a request's payload scales with the touched count
// rather than the global array size.
type SystemWire struct {
	M     int  `json:"m"`
	N     int  `json:"n"`
	G     Ints `json:"g"`
	F     Ints `json:"f"`
	H     Ints `json:"h,omitempty"`
	Cells Ints `json:"cells,omitempty"`
}

// WireFromSystem converts a System to its wire form (slices are shared, not
// copied — marshal before mutating).
func WireFromSystem(s *System) SystemWire {
	return SystemWire{M: s.M, N: s.N, G: s.G, F: s.F, H: s.H}
}

// WireFromSparse converts a sparse system to its wire form (slices shared,
// not copied): the compact maps plus the touched-cell list and global M.
func WireFromSparse(sp *SparseSystem) SystemWire {
	return SystemWire{
		M:     sp.M,
		N:     sp.Compact.N,
		G:     sp.Compact.G,
		F:     sp.Compact.F,
		H:     sp.Compact.H,
		Cells: sp.Cells,
	}
}

// IsSparse reports whether the wire system uses the sparse encoding.
func (w SystemWire) IsSparse() bool { return len(w.Cells) > 0 }

// Sparse converts a sparse wire form back, validating the touched-cell list
// (sorted, distinct, in range) and compact maps; defects wrap
// ErrInvalidSparse. An omitted n is inferred from len(g).
func (w SystemWire) Sparse() (*SparseSystem, error) {
	if !w.IsSparse() {
		return nil, fmt.Errorf("%w: no touched-cell list (dense encoding: use System)", ErrInvalidSparse)
	}
	g, f := w.G, w.F
	if g == nil {
		g = []int{}
	}
	if f == nil {
		f = []int{}
	}
	if w.N != 0 && w.N != len(g) {
		return nil, fmt.Errorf("%w: n = %d, want len(g) = %d", ErrInvalidSparse, w.N, len(g))
	}
	return SparseFromCompact(w.M, w.Cells, g, f, w.H)
}

// System converts the wire form back and validates it structurally, so a
// malformed request fails with ErrInvalidSystem before reaching a solver.
// An omitted n is inferred from len(g). Sparse-encoded wire systems must be
// decoded with Sparse instead; calling System on one is an error (the
// compact ids would silently misread as global indices).
func (w SystemWire) System() (*System, error) {
	if w.IsSparse() {
		return nil, fmt.Errorf("%w: sparse encoding (cells present): decode with Sparse", ErrInvalidSparse)
	}
	n := w.N
	if n == 0 {
		n = len(w.G)
	}
	s := &System{M: w.M, N: n, G: w.G, F: w.F, H: w.H}
	if s.G == nil {
		s.G = []int{}
	}
	if s.F == nil {
		s.F = []int{}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// OptionsWire is the JSON form of SolveOptions plus the per-request deadline.
type OptionsWire struct {
	// Procs bounds solver-internal goroutines; 0 lets the server choose.
	Procs int `json:"procs,omitempty"`
	// MaxExponentBits caps CAP trace-exponent growth (general solves).
	MaxExponentBits int `json:"max_exponent_bits,omitempty"`
	// TimeoutMs is the client's solve deadline in milliseconds; 0 means
	// the server default. Servers clamp it to their configured maximum.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Options converts the wire form to SolveOptions; the deadline is the
// transport's concern and is applied by the server, not here.
func (w OptionsWire) Options() (SolveOptions, error) {
	if w.Procs < 0 {
		return SolveOptions{}, fmt.Errorf("%w: procs = %d, want >= 0", ErrInvalidSystem, w.Procs)
	}
	if w.TimeoutMs < 0 {
		return SolveOptions{}, fmt.Errorf("%w: timeout_ms = %d, want >= 0", ErrInvalidSystem, w.TimeoutMs)
	}
	return SolveOptions{Procs: w.Procs, MaxExponentBits: w.MaxExponentBits}, nil
}
