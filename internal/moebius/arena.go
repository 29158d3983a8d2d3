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
	// mats is the fill target on the fallback path for shadow plans that
	// are not primeable. buildShadowSystem always yields primeable plans
	// (chain terminals read shadow or never-written cells), so this stays
	// nil in practice; it is defense in depth against a future shadow
	// construction breaking the invariant.
	mats []Mat2
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
	fill := ar.ord.Buf()
	if !p.ord.Primeable() {
		ar.mats = make([]Mat2, p.shadowM)
		fill = ar.mats
	}
	for x := range fill {
		fill[x] = Identity()
	}
	return ar
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

// fill loads this replay's per-statement matrices into dst's g-slots and
// accumulates a finiteness probe over the coefficient rows in the same
// pass: x − x is ±0 for finite x and NaN otherwise, so the running sums are
// non-zero exactly when some coefficient is non-finite — the separate
// guard scans ride along with the loads the fill performs anyway. The
// affine form writes c = 0, d = 1 directly (bit-equal to the all-zeros /
// all-ones rows the caller used to supply). Callers must have checked the
// row lengths against len(p.g).
func (p *Plan) fill(dst []Mat2, a, b, c, d []float64, affine bool) float64 {
	g := p.g
	a, b = a[:len(g)], b[:len(g)]
	var bad1, bad2 float64
	if affine {
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
// combine schedule of Plan.SolveCtx — results are bit-identical. The
// returned slice is ar's output buffer: it is overwritten by the next solve
// on the same arena, and a steady-state warm replay performs no allocation.
func (p *Plan) SolveArenaCtx(ctx context.Context, ar *Arena, a, b, c, d, x0 []float64, opt ordinary.Options) ([]float64, error) {
	n := p.N
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		return nil, fmt.Errorf("%w: coefficient lengths disagree with n = %d", ErrBadSystem, n)
	}
	return p.solveArena(ctx, ar, a, b, c, d, x0, false, opt)
}

// SolveLinearArenaCtx is the affine-form arena replay:
// X[g(i)] := a[i]·X[f(i)] + b[i], i.e. c = 0, d = 1 written by the fill
// itself. Same aliasing and zero-allocation contract as SolveArenaCtx.
func (p *Plan) SolveLinearArenaCtx(ctx context.Context, ar *Arena, a, b, x0 []float64, opt ordinary.Options) ([]float64, error) {
	n := p.N
	if len(a) != n || len(b) != n {
		return nil, fmt.Errorf("%w: coefficient lengths disagree with n = %d", ErrBadSystem, n)
	}
	return p.solveArena(ctx, ar, a, b, nil, nil, x0, true, opt)
}

// solveArena is the shared replay body behind the arena and pooled entry
// points. Guard order matches the original explicit sequence — coefficient
// rows (A, B, C, D), then x0 length and values, then the solve, then the
// output scan — so every error is byte-identical to Plan.SolveCtx's.
func (p *Plan) solveArena(ctx context.Context, ar *Arena, a, b, c, d, x0 []float64, affine bool, opt ordinary.Options) ([]float64, error) {
	// Step 1: per-cell matrices, written straight into the pointer-jumping
	// buffer (or ar.mats on the non-primeable fallback). Polluting the
	// buffer before the guards settle is safe: every slot written here or
	// by the solve is rewritten by the next replay's fill.
	dst := ar.ord.Buf()
	if ar.mats != nil {
		dst = ar.mats
	}
	if bad := p.fill(dst, a, b, c, d, affine); bad != 0 {
		if err := checkRowsFinite(a, b, c, d); err != nil {
			return nil, err
		}
	}
	if len(x0) != p.M {
		return nil, fmt.Errorf("%w: len(x0) = %d, want M = %d", ErrInitLen, len(x0), p.M)
	}
	for x, v := range x0 {
		if v-v != 0 { // non-finite: NaN or ±Inf
			return nil, fmt.Errorf("%w: x0[%d] = %v", ErrNonFinite, x, v)
		}
	}

	// Step 2: replay the compiled ordinary schedule over ⊙. The primed
	// path reads the matrices where fill put them — no init copy at all.
	var res *ordinary.Result[Mat2]
	var err error
	if ar.mats == nil {
		res, err = ar.ord.SolvePrimedCtx(ctx, ChainOp{}, opt)
	} else {
		res, err = ar.ord.SolveCtx(ctx, ChainOp{}, ar.mats, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("moebius: %w", err)
	}

	// Step 3: apply composed maps to precomputed chain-root initial values,
	// fused with the output guard. Iterating cells in index order computes
	// the same values as the statement-order loop (g is distinct, each cell
	// written once) and reports the same first non-finite cell the separate
	// ascending scan would. Affine compositions keep C = 0, D = 1 exactly
	// (until normScale fires), and for the finite x0 guaranteed above the
	// denominator is then exactly 1, so skipping the division is
	// bit-identical and saves the divide on the whole linear family.
	out, vals := ar.out, res.Values
	for x := range out {
		root := p.applyRoot[x]
		if root < 0 {
			out[x] = x0[x]
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
		out[x] = v
		if v-v != 0 {
			return nil, fmt.Errorf("%w: cell %d = %v (division by zero along its chain)",
				ErrNonFinite, x, v)
		}
	}
	return out, nil
}

// solvePooled is the copy-out replay behind Plan.SolveCtx and
// SolveLinearCtx: scratch comes from the plan's arena pool, and the only
// per-solve allocation left on the warm path is the caller-owned result.
func (p *Plan) solvePooled(ctx context.Context, a, b, c, d, x0 []float64, affine bool, opt ordinary.Options) ([]float64, error) {
	ar, _ := p.arenas.Get().(*Arena)
	if ar == nil {
		ar = p.NewArena()
	}
	var out []float64
	var err error
	if affine {
		out, err = p.SolveLinearArenaCtx(ctx, ar, a, b, x0, opt)
	} else {
		out, err = p.SolveArenaCtx(ctx, ar, a, b, c, d, x0, opt)
	}
	if err != nil {
		p.arenas.Put(ar)
		return nil, err
	}
	res := make([]float64, len(out))
	copy(res, out)
	p.arenas.Put(ar)
	return res, nil
}
