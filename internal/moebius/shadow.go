package moebius

import (
	"fmt"
	"math"

	"indexedrec/internal/core"
)

// buildShadowSystem builds the ordinary IR system driving the matrix
// composition, with shadow cells for initial-value reads of cells that are
// written later in the loop (see the package comment). Shadow cells are
// numbered m, m+1, ... in order of first need; origOf[sh-m] is the original
// cell whose initial value shadow cell sh stands for (see shadowOrig).
//
// Two linear passes over (g, f) with int32 tables, no dependence arrays or
// hash maps: firstWrite[x] is the first iteration writing x (-1 if none), so
// iteration i reads x's initial value while x is still to be written exactly
// when firstWrite[x] >= i — a read of a cell written at or after i.
func buildShadowSystem(m int, g, f []int) (*core.System, []int32, error) {
	n := len(g)
	if m > math.MaxInt32 || n > math.MaxInt32 {
		return nil, nil, fmt.Errorf("%w: m = %d, n = %d exceed the shadow-table limit %d",
			ErrBadSystem, m, n, math.MaxInt32)
	}
	sys := &core.System{M: m, N: n,
		G: append([]int(nil), g...),
		F: make([]int, n),
	}
	firstWrite := make([]int32, m)
	shadowOf := make([]int32, m) // original cell -> shadow index + 1, 0 = none
	for x := range firstWrite {
		firstWrite[x] = -1
	}
	for i := n - 1; i >= 0; i-- {
		firstWrite[g[i]] = int32(i)
	}
	var origOf []int32
	for i, fc := range f {
		if firstWrite[fc] < int32(i) {
			// Never written, or already written by an earlier iteration:
			// the read sees fc's own current value.
			sys.F[i] = fc
			continue
		}
		// Initial-value read of a cell that IS written later: the matrix at
		// fc belongs to that later write, so detour through an
		// identity-holding shadow cell.
		if shadowOf[fc] == 0 {
			origOf = append(origOf, int32(fc))
			shadowOf[fc] = int32(len(origOf))
		}
		sys.F[i] = m + int(shadowOf[fc]) - 1
	}
	sys.M = m + len(origOf)
	return sys, origOf, nil
}

// shadowOrig resolves a chain root of the shadow system to the original cell
// whose initial value it stands for: shadow cells (ids >= m) map through
// origOf, original cells to themselves.
func shadowOrig(root, m int, origOf []int32) int {
	if root >= m {
		return int(origOf[root-m])
	}
	return root
}
