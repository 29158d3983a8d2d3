package moebius

import (
	"fmt"
	"math"
)

// Incremental (streaming) extension of a Möbius/linear solve. A Resume holds
// two materializations of the solved prefix:
//
//   - the value array itself, advanced one iteration at a time exactly as
//     RunSequential would (so values after any append are bit-identical to
//     the sequential oracle over the concatenated system), and
//   - per written cell, the running composed 2×2 map from its chain root's
//     initial value to its value — the same left-fold prefix product the
//     parallel solver computes by pointer jumping, folded in O(1) per
//     appended coefficient row.
//
// Appends are O(1) each because distinct g makes old values final: a new
// iteration reads some cell's settled value and writes a fresh cell, so the
// prefix never needs recomputation. The composed maps are what a session
// snapshot ships when a cluster re-homes a session: they summarize the
// whole prefix in O(m) space regardless of how many rows were folded.
type Resume struct {
	m int
	// cur is the live value array, length m.
	cur []float64
	// comp[x] is the composed Möbius map for written cell x (prefix product
	// of its chain's matrices, chain order); identity for unwritten cells.
	comp []Mat2
	// root[x] is the chain-root cell whose *initial* value comp[x] applies
	// to; -1 for unwritten cells.
	root []int
	// written[x] reports whether some iteration wrote x.
	written []bool
	// n counts folded iterations (prefix + appends).
	n int
}

// NewResume builds resume state from the initial array x0 (copied).
// Fold the prefix system in with Append.
func NewResume(m int, x0 []float64) (*Resume, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: M = %d", ErrBadSystem, m)
	}
	if len(x0) != m {
		return nil, fmt.Errorf("%w: len(x0) = %d, want M = %d", ErrInitLen, len(x0), m)
	}
	r := &Resume{
		m:       m,
		cur:     append([]float64(nil), x0...),
		comp:    make([]Mat2, m),
		root:    make([]int, m),
		written: make([]bool, m),
	}
	for x := range r.comp {
		r.comp[x] = Identity()
		r.root[x] = -1
	}
	for x, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: x0[%d] = %v", ErrNonFinite, x, v)
		}
	}
	return r, nil
}

// Append folds k more rows X[g[i]] := (a[i]·X[f[i]]+b[i])/(c[i]·X[f[i]]+d[i])
// into the state, in order. Nil c and d select the affine form (c = 0,
// d = 1); exactly one nil row is a length error, as at open and in every
// plan replay (coeffLensOK). Every g[i] must be previously unwritten;
// coefficients must be finite; a row whose division hits zero surfaces as
// ErrNonFinite with the offending cell named. On error the state is rolled
// back untouched.
func (r *Resume) Append(g, f []int, a, b, c, d []float64) error {
	k := len(g)
	if len(f) != k || !coeffLensOK(k, a, b, c, d) {
		return fmt.Errorf("%w: append map/coefficient lengths disagree", ErrBadSystem)
	}
	row := func(i int) Mat2 {
		mt := Mat2{A: a[i], B: b[i], C: 0, D: 1}
		if c != nil {
			mt.C = c[i]
		}
		if d != nil {
			mt.D = d[i]
		}
		return mt
	}
	for i := 0; i < k; i++ {
		if g[i] < 0 || g[i] >= r.m || f[i] < 0 || f[i] >= r.m {
			r.rollback(g[:i])
			return fmt.Errorf("%w: append row %d indexes out of range [0,%d)", ErrBadSystem, i, r.m)
		}
		if r.written[g[i]] {
			r.rollback(g[:i])
			return fmt.Errorf("%w: g not distinct (cell %d)", ErrBadSystem, g[i])
		}
		mt := row(i)
		for _, v := range [4]float64{mt.A, mt.B, mt.C, mt.D} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.rollback(g[:i])
				return fmt.Errorf("%w: append row %d has a non-finite coefficient", ErrNonFinite, i)
			}
		}
		r.written[g[i]] = true
	}
	// Validated: advance values and composed maps. A non-finite output is an
	// error, but by then earlier rows of the batch have landed — that
	// matches the sequential loop, where the failure happens mid-stream; the
	// error names the cell and the caller treats the session as poisoned.
	for i := 0; i < k; i++ {
		mt := row(i)
		v := r.cur[f[i]]
		out := (mt.A*v + mt.B) / (mt.C*v + mt.D)
		if math.IsNaN(out) || math.IsInf(out, 0) {
			return fmt.Errorf("%w: cell %d = %v (division by zero along its chain)",
				ErrNonFinite, g[i], out)
		}
		r.cur[g[i]] = out
		// Chain-order composition, exactly ChainOp's orientation: the new
		// row applies after f's composed map. An unwritten f roots the
		// chain at f's initial value with the identity prefix.
		if r.written[f[i]] && r.root[f[i]] >= 0 {
			r.comp[g[i]] = mt.Mul(r.comp[f[i]]).normScale()
			r.root[g[i]] = r.root[f[i]]
		} else {
			r.comp[g[i]] = mt
			r.root[g[i]] = f[i]
		}
		r.n++
	}
	return nil
}

func (r *Resume) rollback(g []int) {
	for _, x := range g {
		r.written[x] = false
	}
}

// Values exposes the live value array (not a copy).
func (r *Resume) Values() []float64 { return r.cur }

// N reports how many iterations have been folded in.
func (r *Resume) N() int { return r.n }

// Written exposes the live written bitmap (not a copy).
func (r *Resume) Written() []bool { return r.written }
