package moebius

import (
	"context"
	"fmt"
	"math"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
)

// ChainOp's monomorphized kernel (mat2.go) backs the zero-allocation warm
// replays below.
var _ core.Kernel[Mat2] = ChainOp{}

// Arena is the reusable scratch of Möbius plan replays: the embedded
// ordinary replay arena (whose working array doubles as the shadow-cell
// matrix store — replays prime it in place) and the output row. A
// steady-state warm replay through an arena allocates nothing. An arena is
// single-solve at a time, and a solve's result aliases the arena's output
// buffer — valid until the next solve on the same arena. Use one arena per
// worker, or the pooled Plan.SolveCtx for a copy-out replay.
type Arena struct {
	plan *Plan
	ord  *ordinary.Arena[Mat2]
	out  []float64
}

// NewArena allocates replay scratch sized for the plan: the ordinary
// pointer-jumping arena over the shadow system and the output row. The
// pointer-jumping buffer is identity-filled here, once: replays rewrite only
// the plan's coefficient slots g[i] in place, and the solve writes nothing
// but those same slots, so identity cells survive from replay to replay and
// the full per-replay init copy disappears.
func (p *Plan) NewArena() *Arena {
	ar := &Arena{
		plan: p,
		ord:  ordinary.NewArena[Mat2](p.ord),
		out:  make([]float64, p.M),
	}
	fillIdentity(ar.ord.Buf())
	return ar
}

// fillIdentity sets every matrix of dst to the identity map.
func fillIdentity(dst []Mat2) {
	for x := range dst {
		dst[x] = Identity()
	}
}

// coeffLensOK reports whether the coefficient rows fit n iterations: a and
// b of length n, and c and d either both nil (the affine form c = 0, d = 1)
// or both of length n.
func coeffLensOK(n int, a, b, c, d []float64) bool {
	if len(a) != n || len(b) != n {
		return false
	}
	return c == nil && d == nil || len(c) == n && len(d) == n
}

// checkRowsFinite rejects NaN/Inf coefficient entries, the up-front half of
// the ErrNonFinite guard, naming the first one in A, B, C, D row order so
// the error is the same on every run (nil rows, as the affine form passes
// for C and D, are skipped). Replays only run it after fill's fused probe
// has already seen a non-finite entry, to recover the exact per-row error.
func checkRowsFinite(a, b, c, d []float64) error {
	for k, cs := range [4][]float64{a, b, c, d} {
		for i, v := range cs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: coefficient %c[%d] = %v", ErrNonFinite, "ABCD"[k], i, v)
			}
		}
	}
	return nil
}

// fill loads the per-statement matrices of iterations g into dst's
// g-slots and accumulates a finiteness probe over the coefficient rows in
// the same pass: x − x is ±0 for finite x and NaN otherwise, so the running
// sums are non-zero exactly when some coefficient is non-finite — the
// separate guard scans ride along with the loads the fill performs anyway.
// Nil c and d are the affine form: the fill writes c = 0, d = 1 itself,
// bit-equal to all-zeros / all-ones rows. Callers must have checked the row
// lengths with coeffLensOK.
func fill(dst []Mat2, g []int, a, b, c, d []float64) float64 {
	a, b = a[:len(g)], b[:len(g)]
	var bad1, bad2 float64
	if c == nil {
		for i, x := range g {
			ai, bi := a[i], b[i]
			bad1 += (ai - ai) + (bi - bi)
			dst[x] = Mat2{A: ai, B: bi, C: 0, D: 1}
		}
		return bad1
	}
	c, d = c[:len(g)], d[:len(g)]
	for i, x := range g {
		ai, bi, ci, di := a[i], b[i], c[i], d[i]
		bad1 += (ai - ai) + (bi - bi)
		bad2 += (ci - ci) + (di - di)
		dst[x] = Mat2{A: ai, B: bi, C: ci, D: di}
	}
	return bad1 + bad2
}

// SolveArenaCtx replays the plan into ar with the exact guard set and
// combine schedule of Plan.SolveCtx — results are bit-identical. Nil c and
// d select the affine form. The returned slice is ar's output buffer: it is
// overwritten by the next solve on the same arena, and a steady-state warm
// replay performs no allocation.
func (p *Plan) SolveArenaCtx(ctx context.Context, ar *Arena, a, b, c, d, x0 []float64, opt ordinary.Options) ([]float64, error) {
	if err := p.load(ar.ord.Buf(), a, b, c, d, x0); err != nil {
		return nil, err
	}
	// Step 2: replay the compiled ordinary schedule over ⊙, reading the
	// matrices where load put them — no init copy at all.
	res, err := ar.ord.SolvePrimedCtx(ctx, ChainOp{}, opt)
	if err != nil {
		return nil, fmt.Errorf("moebius: %w", err)
	}
	if err := p.apply(ar.out, res.Values, x0, 0); err != nil {
		return nil, err
	}
	return ar.out, nil
}

// load is step 1 of every replay together with its input guards, in the
// one order all entry points share: coefficient lengths, coefficient rows
// (A, B, C, D), then x0 length and values. It writes the per-cell matrices
// into dst's g-slots; polluting dst before the guards settle is safe, as
// every slot written here or by the solve is rewritten by the next fill.
func (p *Plan) load(dst []Mat2, a, b, c, d, x0 []float64) error {
	if !coeffLensOK(p.N, a, b, c, d) {
		return fmt.Errorf("%w: coefficient lengths disagree with n = %d", ErrBadSystem, p.N)
	}
	if bad := fill(dst, p.g, a, b, c, d); bad != 0 {
		if err := checkRowsFinite(a, b, c, d); err != nil {
			return err
		}
	}
	if len(x0) != p.M {
		return fmt.Errorf("%w: len(x0) = %d, want M = %d", ErrInitLen, len(x0), p.M)
	}
	for x, v := range x0 {
		if v-v != 0 { // non-finite: NaN or ±Inf
			return fmt.Errorf("%w: x0[%d] = %v", ErrNonFinite, x, v)
		}
	}
	return nil
}

// apply is step 3 of every replay: it applies the composed maps vals to
// the precomputed chain-root initial values for output cells
// [lo, lo+len(out)), fused with the output guard. Iterating cells in index
// order computes the same values as the statement-order loop (g is
// distinct, each cell written once) and reports the same first non-finite
// cell an ascending scan would. Affine compositions keep C = 0, D = 1
// exactly (until normScale fires), and for the finite x0 load guarantees
// the denominator is then exactly 1, so skipping the division is
// bit-identical and saves the divide on the whole linear family.
func (p *Plan) apply(out []float64, vals []Mat2, x0 []float64, lo int) error {
	for k := range out {
		x := lo + k
		root := p.applyRoot[x]
		if root < 0 {
			out[k] = x0[x]
			continue
		}
		mv := vals[x]
		xr := x0[root]
		var v float64
		if mv.C == 0 && mv.D == 1 {
			v = mv.A*xr + mv.B
		} else {
			v = mv.Apply(xr)
		}
		out[k] = v
		if v-v != 0 {
			return fmt.Errorf("%w: cell %d = %v (division by zero along its chain)",
				ErrNonFinite, x, v)
		}
	}
	return nil
}
