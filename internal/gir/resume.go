package gir

import (
	"fmt"

	"indexedrec/internal/core"
)

// Incremental (streaming) extension of a general (GIR) solve. Unlike the
// ordinary family, general systems may rewrite cells, so there is no
// settled-prefix shortcut — but the sequential fold itself IS the semantic
// definition of the result, and each appended iteration costs exactly one
// Combine against the materialized state. AppendFold applies a batch that
// way, with no path counts and so no exponent growth.

// AppendFold applies k iterations A[g[i]] = op(A[f[i]], A[h[i]]) to the
// materialized state cur, in order — the incremental extension of a general
// solve, bit-identical to core.RunSequential of the concatenated system by
// construction. A nil h selects the ordinary shape h = g. Indices are
// validated against len(cur) before any mutation.
func AppendFold[T any](cur []T, op core.Semigroup[T], g, f, h []int) error {
	k := len(g)
	if len(f) != k || (h != nil && len(h) != k) {
		return fmt.Errorf("%w: append map lengths disagree", core.ErrInvalidSystem)
	}
	m := len(cur)
	check := func(name string, idx []int) error {
		for i, v := range idx {
			if v < 0 || v >= m {
				return fmt.Errorf("%w: append %s[%d] = %d out of range [0,%d)",
					core.ErrInvalidSystem, name, i, v, m)
			}
		}
		return nil
	}
	if err := check("g", g); err != nil {
		return err
	}
	if err := check("f", f); err != nil {
		return err
	}
	if h != nil {
		if err := check("h", h); err != nil {
			return err
		}
	}
	if h == nil {
		for i := 0; i < k; i++ {
			cur[g[i]] = op.Combine(cur[f[i]], cur[g[i]])
		}
		return nil
	}
	for i := 0; i < k; i++ {
		cur[g[i]] = op.Combine(cur[f[i]], cur[h[i]])
	}
	return nil
}
