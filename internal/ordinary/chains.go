package ordinary

import (
	"errors"
	"fmt"

	"indexedrec/internal/core"
)

// ErrNotOrdinary is returned for systems with H ≠ G.
var ErrNotOrdinary = errors.New("ordinary: system is not in ordinary form (H != G)")

// ErrGNotDistinct is returned when two iterations write the same cell; the
// O(n)-processor algorithm requires distinct g (paper §2). Use package gir
// for the general case.
var ErrGNotDistinct = errors.New("ordinary: g is not distinct")

// Forest is the write-chain forest of an ordinary IR system: the input to
// pointer jumping, before any values are attached.
type Forest struct {
	// Next[x] is the chain successor of cell x (the cell whose final value
	// iteration writer(x) consumes), or -1 when x's trace terminates.
	Next []int
	// InitF[x] is, for terminal written cells, the cell whose initial value
	// the trace starts with (= f(writer(x))); -1 for non-terminal or
	// unwritten cells.
	InitF []int
	// Written[x] reports whether any iteration writes cell x.
	Written []bool
	// Cells lists the written cells, the only ones pointer jumping touches.
	Cells []int
}

// BuildForest validates the system and constructs its write-chain forest in
// one O(n + m) scan over (g, f) — the paper's linear forest construction,
// with no auxiliary dependence arrays or hash sets. Written doubles as the
// distinctness check: a g(i) already marked written is a duplicate write.
func BuildForest(s *core.System) (*Forest, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.Ordinary() {
		return nil, fmt.Errorf("%w: %v", ErrNotOrdinary, s)
	}
	fr := &Forest{
		Next:    make([]int, s.M),
		InitF:   make([]int, s.M),
		Written: make([]bool, s.M),
		Cells:   make([]int, 0, s.N),
	}
	for x := range fr.Next {
		fr.Next[x], fr.InitF[x] = -1, -1
	}
	for i := 0; i < s.N; i++ {
		x, fc := s.G[i], s.F[i]
		if fr.Written[x] {
			return nil, fmt.Errorf("%w: %v", ErrGNotDistinct, s)
		}
		// Written still reflects iterations j < i only, so it answers "does
		// some earlier iteration write f(i)?" (a self-read f(i) = g(i) reads
		// the initial value, since g(i) is not yet marked).
		if fr.Written[fc] {
			// The consumed value is f(i)'s final value, so the chain
			// continues through cell f(i).
			fr.Next[x] = fc
		} else {
			// The consumed value is the initial A₀[f(i)]; fold it in.
			fr.InitF[x] = fc
		}
		fr.Written[x] = true
		fr.Cells = append(fr.Cells, x)
	}
	return fr, nil
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
		depth[x] = 1 + walk(fr.Next[x])
		return depth[x]
	}
	maxLen := 0
	for _, x := range fr.Cells {
		if l := walk(x); l > maxLen {
			maxLen = l
		}
	}
	return maxLen
}
