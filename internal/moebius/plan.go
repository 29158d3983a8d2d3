package moebius

import (
	"context"
	"fmt"
	"sync"

	"indexedrec/internal/ordinary"
)

// Compiled solve plans for the Möbius family. Everything the three-step
// reduction does before coefficients enter — validation of the index maps,
// the shadow-cell rewrite, the write-chain forest, and the full
// pointer-jumping schedule over it — depends only on (m, g, f). CompilePlan
// computes those once; Plan.SolveCtx replays the schedule against fresh
// (a, b, c, d, x0) data. Replays perform the same matrix compositions and
// map applications as MoebiusSystem.SolveCtx, in the same order, so results
// are bit-identical.

// Plan is the compiled, coefficient-independent part of a Möbius solve.
// Immutable after compilation and safe for concurrent replays.
type Plan struct {
	// M is the cell count, N the iteration count (= len(g)).
	M, N int
	// g retains the write map: replays need it to place per-iteration
	// matrices and to apply composed maps.
	g []int
	// shadowM is the cell count of the shadow-extended ordinary system.
	shadowM int
	// ord is the compiled pointer-jumping schedule over the shadow system.
	ord *ordinary.Plan
	// applyRoot[x], for written cells x, is the original cell whose initial
	// value x's composed map is applied to (chain root with shadow cells
	// resolved); -1 for unwritten cells.
	applyRoot []int
	// arenas pools replay scratch (see Arena): together with the plan
	// cache's fingerprint keying, warm replays through SolveCtx check their
	// shadow matrices, pointer-jumping buffers and output row out and back
	// in instead of allocating them.
	arenas sync.Pool
}

// CompilePlan validates the index maps and compiles the shadow system's
// pointer-jumping schedule. Coefficients and initial values play no part;
// they are supplied per replay.
func CompilePlan(ctx context.Context, m int, g, f []int) (*Plan, error) {
	if len(f) != len(g) {
		return nil, fmt.Errorf("%w: len(g) = %d, len(f) = %d", ErrBadSystem, len(g), len(f))
	}
	if m <= 0 {
		return nil, fmt.Errorf("%w: M = %d", ErrBadSystem, m)
	}
	if err := checkIndexMaps(m, g, f); err != nil {
		return nil, err
	}

	sys, origOf, err := buildShadowSystem(m, g, f)
	if err != nil {
		return nil, err
	}
	// Pinned to pointer jumping: Mat2 products are float and reassociation
	// changes rounding, while this layer's replays promise bit-identity to
	// the direct Möbius solve (FuzzMoebiusPlanAgainstDirect enforces it).
	ord, err := ordinary.CompilePlanOpts(ctx, sys, ordinary.PlanOptions{Schedule: ordinary.ScheduleJumping})
	if err != nil {
		return nil, fmt.Errorf("moebius: %w", err)
	}
	// Replays prime the pointer-jumping buffer in place; the shadow rewrite
	// makes every chain terminal read a shadow or never-written cell.
	if !ord.Primeable() {
		return nil, fmt.Errorf("moebius: shadow system is not primeable")
	}
	p := &Plan{
		M:         m,
		N:         len(g),
		g:         append([]int(nil), g...),
		shadowM:   sys.M,
		ord:       ord,
		applyRoot: make([]int, m),
	}
	for x := range p.applyRoot {
		p.applyRoot[x] = -1
	}
	// The ordinary plan keeps no roots array; Roots derives one from its
	// chain table, used here once and dropped.
	roots := ord.Roots()
	for _, x := range g {
		p.applyRoot[x] = shadowOrig(roots[x], m, origOf)
	}
	return p, nil
}

// SizeBytes estimates the plan's resident size for cache accounting.
func (p *Plan) SizeBytes() int64 {
	return int64(len(p.g)+len(p.applyRoot))*8 + p.ord.SizeBytes()
}

// SolveCtx replays the plan against fresh coefficients and initial values,
// with the exact guard set of MoebiusSystem.SolveCtx: non-finite
// coefficients or x0 entries return ErrNonFinite up front, and a division
// by zero surfacing as a non-finite output cell returns ErrNonFinite after
// the solve. Nil c and d select the affine form c = 0, d = 1 (compose the
// extended form's b rewrite before calling, as NewExtended does). Scratch
// comes from the plan's arena pool, so a warm replay's only allocation is
// the returned result; see SolveArenaCtx for the explicit, zero-allocation
// arena API.
func (p *Plan) SolveCtx(ctx context.Context, a, b, c, d, x0 []float64, opt ordinary.Options) ([]float64, error) {
	ar, _ := p.arenas.Get().(*Arena)
	if ar == nil {
		ar = p.NewArena()
	}
	defer p.arenas.Put(ar)
	out, err := p.SolveArenaCtx(ctx, ar, a, b, c, d, x0, opt)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), out...), nil
}
