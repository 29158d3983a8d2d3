package core

import (
	"errors"
	"fmt"
)

// System describes an indexed recurrence system: N loop iterations over an
// array of M cells. Iteration i performs A[G[i]] = op(A[F[i]], A[H[i]]).
// A nil H means the ordinary form H = G, i.e. A[G[i]] = op(A[F[i]], A[G[i]]).
type System struct {
	// M is the number of array cells; valid indices are 0..M-1.
	M int
	// N is the number of loop iterations; G, F (and H when present) have
	// length N.
	N int
	// G maps each iteration to the cell it writes.
	G []int
	// F maps each iteration to its first operand cell.
	F []int
	// H maps each iteration to its second operand cell. nil means H = G
	// (the ordinary IR form).
	H []int
}

// Ordinary reports whether the system is in the ordinary form H = G, either
// because H is nil or because H equals G element-wise.
func (s *System) Ordinary() bool {
	if s.H == nil {
		return true
	}
	for i, h := range s.H {
		if h != s.G[i] {
			return false
		}
	}
	return true
}

// GDistinct reports whether no cell is written by more than one iteration —
// the paper's precondition for the O(n)-processor ordinary algorithm and for
// the Möbius rewriting of the extended linear form. It answers for any G,
// including the out-of-range ids of a system that fails Validate.
func (s *System) GDistinct() bool { return FirstRepeat(s.G, s.M) < 0 }

// ErrInvalidSystem wraps all validation failures.
var ErrInvalidSystem = errors.New("core: invalid IR system")

// Validate checks structural consistency: positive sizes, matching map
// lengths, and in-bounds indices. It does NOT require G distinct; solvers
// with that precondition check it themselves.
func (s *System) Validate() error {
	if s.M <= 0 {
		return fmt.Errorf("%w: M = %d, want > 0", ErrInvalidSystem, s.M)
	}
	if s.N < 0 {
		return fmt.Errorf("%w: N = %d, want >= 0", ErrInvalidSystem, s.N)
	}
	if len(s.G) != s.N || len(s.F) != s.N {
		return fmt.Errorf("%w: len(G)=%d len(F)=%d, want N=%d",
			ErrInvalidSystem, len(s.G), len(s.F), s.N)
	}
	if s.H != nil && len(s.H) != s.N {
		return fmt.Errorf("%w: len(H)=%d, want N=%d", ErrInvalidSystem, len(s.H), s.N)
	}
	check := func(name string, idx []int) error {
		for i, v := range idx {
			if v < 0 || v >= s.M {
				return fmt.Errorf("%w: %s[%d] = %d out of range [0,%d)",
					ErrInvalidSystem, name, i, v, s.M)
			}
		}
		return nil
	}
	if err := check("G", s.G); err != nil {
		return err
	}
	if err := check("F", s.F); err != nil {
		return err
	}
	if s.H != nil {
		if err := check("H", s.H); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := &System{M: s.M, N: s.N}
	c.G = append([]int(nil), s.G...)
	c.F = append([]int(nil), s.F...)
	if s.H != nil {
		c.H = append([]int(nil), s.H...)
	}
	return c
}

// OperandH returns the second-operand cell of iteration i, resolving the
// H = G convention for ordinary systems.
func (s *System) OperandH(i int) int {
	if s.H == nil {
		return s.G[i]
	}
	return s.H[i]
}

// String summarizes the system shape for error messages and reports.
func (s *System) String() string {
	form := "general"
	if s.Ordinary() {
		form = "ordinary"
	}
	return fmt.Sprintf("IR{%s, n=%d, m=%d}", form, s.N, s.M)
}

// FromFuncs builds a System by tabulating index functions over 0..n-1.
// h may be nil for the ordinary form. It is a convenience for examples and
// tests that state systems the way the paper does, as functions f, g, h.
func FromFuncs(n, m int, g, f, h func(i int) int) *System {
	s := &System{M: m, N: n, G: make([]int, n), F: make([]int, n)}
	if h != nil {
		s.H = make([]int, n)
	}
	for i := 0; i < n; i++ {
		s.G[i] = g(i)
		s.F[i] = f(i)
		if h != nil {
			s.H[i] = h(i)
		}
	}
	return s
}
