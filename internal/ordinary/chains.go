package ordinary

import (
	"errors"
	"fmt"
	"math"

	"indexedrec/internal/core"
)

// ErrNotOrdinary is returned for systems with H ≠ G.
var ErrNotOrdinary = errors.New("ordinary: system is not in ordinary form (H != G)")

// ErrGNotDistinct is returned when two iterations write the same cell; the
// O(n)-processor algorithm requires distinct g (paper §2). Use package gir
// for the general case.
var ErrGNotDistinct = errors.New("ordinary: g is not distinct")

// Forest is the write-chain forest of an ordinary IR system: the input to
// pointer jumping, before any values are attached. The written cells in
// iteration order are the system's G, so the forest does not copy them.
type Forest struct {
	// Next[x] is the chain successor of cell x (the cell whose final value
	// iteration writer(x) consumes), or -1 when x's trace terminates.
	Next []int32
	// InitF[x] is, for terminal written cells, the cell whose initial value
	// the trace starts with (= f(writer(x))); -1 for non-terminal or
	// unwritten cells.
	InitF []int32
}

// Written reports whether some iteration writes cell x: exactly the cells
// with a chain successor or an initial-value source.
func (fr *Forest) Written(x int) bool { return fr.Next[x] >= 0 || fr.InitF[x] >= 0 }

// BuildForest validates the system and constructs its write-chain forest in
// one O(n + m) scan over (g, f) — the paper's linear forest construction,
// with no auxiliary dependence arrays or hash sets. The scan range-checks
// every g and f, and Written doubles as the distinctness check (a g(i)
// already written is a duplicate write). On any defect it defers to
// Validate for the error, so errors and their precedence are exactly a
// validate-first pass's: Validate's, then ErrGNotDistinct.
func BuildForest(s *core.System) (*Forest, error) {
	if s.H != nil || s.M <= 0 || s.M > math.MaxInt32 || len(s.G) != s.N || len(s.F) != s.N {
		// The scan needs the shapes right; an explicit H must also be G.
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if !s.Ordinary() {
			return nil, fmt.Errorf("%w: %v", ErrNotOrdinary, s)
		}
		if s.M > math.MaxInt32 {
			return nil, fmt.Errorf("ordinary: m = %d exceeds the forest cell limit %d", s.M, math.MaxInt32)
		}
	}
	m := uint(s.M)
	next, initF := make([]int32, m), make([]int32, m)
	for x := range next {
		next[x], initF[x] = -1, -1
	}
	f := s.F[:len(s.G)]
	for i, x := range s.G {
		fc := f[i]
		if uint(x) >= m || uint(fc) >= m || next[x] >= 0 || initF[x] >= 0 {
			if err := s.Validate(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", ErrGNotDistinct, s)
		}
		// Only iterations j < i have written so far, so this asks "does some
		// earlier iteration write f(i)?" (a self-read f(i) = g(i) reads the
		// initial value, since g(i) is not yet written).
		if next[fc] >= 0 || initF[fc] >= 0 {
			// The consumed value is f(i)'s final value, so the chain
			// continues through cell f(i).
			next[x] = int32(fc)
		} else {
			// The consumed value is the initial A₀[f(i)]; fold it in.
			initF[x] = int32(fc)
		}
	}
	return &Forest{Next: next, InitF: initF}, nil
}

// MaxChainLen returns the length (in cells) of the longest pred chain; the
// pointer-jumping round count is ⌈log₂⌉ of this. Runs in O(m) using memoized
// depths (chains are acyclic by construction).
func (fr *Forest) MaxChainLen() int {
	depth := make([]int, len(fr.Next)) // 0 = unknown; else chain length
	var walk func(x int) int
	walk = func(x int) int {
		if depth[x] != 0 {
			return depth[x]
		}
		if fr.Next[x] < 0 {
			depth[x] = 1
			return 1
		}
		depth[x] = 1 + walk(int(fr.Next[x]))
		return depth[x]
	}
	maxLen := 0
	for x := range fr.Next {
		if !fr.Written(x) {
			continue
		}
		if l := walk(x); l > maxLen {
			maxLen = l
		}
	}
	return maxLen
}
