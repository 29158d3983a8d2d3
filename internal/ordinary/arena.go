package ordinary

import (
	"context"
	"fmt"
	"sync/atomic"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// kernelsDisabled is the global kill switch for monomorphized kernels (see
// SetKernelsEnabled): when set, replays and direct solves use the generic
// op.Combine element loops even for ops implementing core.Kernel. Fuzzers
// flip it to prove both dispatch paths are bit-identical.
var kernelsDisabled atomic.Bool

// SetKernelsEnabled globally enables (default) or disables monomorphized
// kernel dispatch and reports whether it was enabled before. Intended for
// tests and fuzzers exercising the generic path; not a production tunable.
func SetKernelsEnabled(on bool) bool {
	return !kernelsDisabled.Swap(!on)
}

// kernelFor resolves op's monomorphized kernel, or nil for generic dispatch.
func kernelFor[T any](op core.Semigroup[T]) core.Kernel[T] {
	if kernelsDisabled.Load() {
		return nil
	}
	k, _ := op.(core.Kernel[T])
	return k
}

// Arena is the reusable scratch of plan replays: the working value array,
// the gather snapshot buffer, the result shell, and the pre-bound parallel
// round bodies, all sized once for one plan. A steady-state warm replay
// through an arena performs no allocation at all. An arena is single-solve
// at a time (not safe for concurrent SolveCtx calls on the same arena), and
// the result of a solve aliases the arena's buffers — it is valid only
// until the next SolveCtx on the same arena. Use one arena per worker, or
// SolvePlanPooledCtx for pool-managed scratch and a caller-owned result.
type Arena[T any] struct {
	plan *Plan
	// v is the working value array: the arena's own buffer, or — for the
	// value-less arenas SolvePlanPooledCtx pools — the caller's result
	// array, bound for one solve.
	v   []T
	src []T
	// sum/sum2 are the blocked schedule's double-buffered segment-summary
	// arrays (one slot per segment), carved out once here so warm blocked
	// replays allocate nothing.
	sum  []T
	sum2 []T
	res  Result[T]

	// Per-solve bindings, cleared on return so pooled arenas retain no
	// caller data.
	op     core.Semigroup[T]
	kern   core.Kernel[T]
	init   []T
	round  *roundSched
	stride int

	// Round bodies, bound once so ForCtx dispatch never allocates.
	initBody   func(lo, hi int) error
	gatherBody func(lo, hi int) error
	applyBody  func(lo, hi int) error
	// Blocked-phase bodies (bound only for blocked plans).
	reduceBody   func(lo, hi int) error
	treeBody     func(lo, hi int) error
	applyBlkBody func(lo, hi int) error
}

// NewArena allocates replay scratch for p: the value array, a gather
// snapshot buffer of the plan's widest round (or the segment-summary
// buffers of a blocked plan), and the bound round bodies.
func NewArena[T any](p *Plan) *Arena[T] {
	return newArena(p, make([]T, p.M))
}

// newArena builds an arena over the working array v; nil leaves the array
// to be bound per solve (SolvePlanPooledCtx).
func newArena[T any](p *Plan, v []T) *Arena[T] {
	a := &Arena[T]{
		plan: p,
		v:    v,
		src:  make([]T, p.maxGather),
	}
	a.initBody = a.initFold
	a.gatherBody = a.gather
	a.applyBody = a.apply
	if b := p.blocked; b != nil {
		a.sum = make([]T, b.numSegs())
		a.sum2 = make([]T, b.numSegs())
		a.reduceBody = a.blkReduce
		a.treeBody = a.blkTree
		a.applyBlkBody = a.blkApply
	}
	return a
}

// initFold is the initialization-phase round body: terminal written cells
// fold in their chain root's initial value.
func (a *Arena[T]) initFold(lo, hi int) error {
	p := a.plan
	if a.kern != nil {
		a.kern.CombineScatter(a.v, a.init, p.initDst, p.initSrc, lo, hi)
		return nil
	}
	for k := lo; k < hi; k++ {
		x := p.initDst[k]
		a.v[x] = a.op.Combine(a.init[p.initSrc[k]], a.v[x])
	}
	return nil
}

// gather snapshots the current round's gather-pair sources (pre-round
// values, the explicit form of SolveCtx's double buffering).
func (a *Arena[T]) gather(lo, hi int) error {
	rd := a.round
	for k := lo; k < hi; k++ {
		a.src[k] = a.v[rd.gatherSrc[k]]
	}
	return nil
}

// apply runs the current round's combines over the chunk [lo, hi) of the
// concatenated gather-then-direct pair index space.
func (a *Arena[T]) apply(lo, hi int) error {
	rd := a.round
	gl := len(rd.gatherDst)
	if lo < gl {
		e := hi
		if e > gl {
			e = gl
		}
		if a.kern != nil {
			a.kern.CombineGathered(a.v, a.src, rd.gatherDst, lo, e)
		} else {
			for k := lo; k < e; k++ {
				x := rd.gatherDst[k]
				a.v[x] = a.op.Combine(a.src[k], a.v[x])
			}
		}
	}
	if hi > gl {
		s := lo
		if s < gl {
			s = gl
		}
		if a.kern != nil {
			a.kern.CombineScatter(a.v, a.v, rd.directDst, rd.directSrc, s-gl, hi-gl)
		} else {
			for k := s - gl; k < hi-gl; k++ {
				x := rd.directDst[k]
				a.v[x] = a.op.Combine(a.v[rd.directSrc[k]], a.v[x])
			}
		}
	}
	return nil
}

// blkReduce is the blocked schedule's reduce-phase body: each segment folds
// its cells' initial values into one summary (reduceSeg).
func (a *Arena[T]) blkReduce(lo, hi int) error {
	b := a.plan.blocked
	for s := lo; s < hi; s++ {
		a.sum[s] = reduceSeg(a.plan, a.op, a.kern, a.init, s, int(b.segOff[s+1]))
	}
	return nil
}

// blkTree is one round of the Kogge–Stone combine tree over the segment
// summaries: segments with an in-chain predecessor at the current stride
// fold it in (prefix operand first), the rest copy forward; double-buffered
// into sum2, swapped by the driver. Generic dispatch only — the tree
// touches numSegs ≈ n/256 elements, cold next to the reduce/apply phases.
func (a *Arena[T]) blkTree(lo, hi int) error {
	b := a.plan.blocked
	d := a.stride
	for s := lo; s < hi; s++ {
		if s-d >= int(b.segFirst[s]) {
			a.sum2[s] = a.op.Combine(a.sum[s-d], a.sum[s])
		} else {
			a.sum2[s] = a.sum[s]
		}
	}
	return nil
}

// blkApply is the blocked schedule's prefix-apply body: each segment
// re-folds its cells seeded with its predecessor segment's tree prefix,
// writing every cell's final value (applySeg).
func (a *Arena[T]) blkApply(lo, hi int) error {
	b := a.plan.blocked
	for s := lo; s < hi; s++ {
		applySeg(a.plan, a.op, a.kern, a.v, a.init, a.sum, s, int(b.segOff[s+1]))
	}
	return nil
}

// Buf exposes the arena's working value array for prime-in-place replays:
// load initial values into it and call SolvePrimedCtx to replay without the
// arena's own init copy. The buffer is owned by the arena and aliased by
// every result; len(Buf()) == Plan().M.
func (a *Arena[T]) Buf() []T { return a.v }

// SolveCtx replays the arena's plan against fresh data, reusing the arena's
// scratch: a steady-state warm replay allocates nothing. The returned result
// aliases the arena (Values is the working array) and is valid until the
// next SolveCtx on the same arena. Combines and operand order are exactly
// SolvePlanCtx's, so results are bit-identical; error and cancellation
// behavior follows the same contract.
func (a *Arena[T]) SolveCtx(ctx context.Context, op core.Semigroup[T], init []T, opt Options) (*Result[T], error) {
	if len(init) != a.plan.M {
		return nil, fmt.Errorf("%w: len(init) = %d, want M = %d", ErrInitLen, len(init), a.plan.M)
	}
	return a.result(a.solve(ctx, op, init, opt))
}

// SolvePrimedCtx replays the arena's plan reading initial values from the
// working array itself: the caller fills Buf() with this replay's initial
// values and no copy is made. Only valid for primeable plans (see
// Plan.Primeable) — the initialization fold then reads sources the solve
// never writes, so in-place reads observe exactly the values SolveCtx's
// init copy would. The solve overwrites written cells of Buf() only;
// callers that keep unwritten cells loaded (the Möbius shadow arenas) can
// re-prime just the written slots between replays. Results are bit-identical
// to SolveCtx with the same buffer contents as init.
func (a *Arena[T]) SolvePrimedCtx(ctx context.Context, op core.Semigroup[T], opt Options) (*Result[T], error) {
	if !a.plan.primeable {
		return nil, fmt.Errorf("ordinary: SolvePrimedCtx: plan is not primeable (an initialization source cell is written)")
	}
	return a.result(a.solve(ctx, op, nil, opt))
}

// result fills the arena's result shell after a successful solve.
func (a *Arena[T]) result(err error) (*Result[T], error) {
	if err != nil {
		return nil, err
	}
	a.res = Result[T]{Values: a.v, Rounds: a.plan.Rounds(), Combines: a.plan.Combines()}
	return &a.res, nil
}

// solve is the shared replay body, writing final values into a.v; init ==
// nil means primed mode (a.v already holds the initial values and doubles
// as the init array).
func (a *Arena[T]) solve(ctx context.Context, op core.Semigroup[T], init []T, opt Options) (err error) {
	defer parallel.RecoverTo(&err)
	p := a.plan
	ctx, release := parallel.EnsureGang(ctx, opt.Procs, p.M)
	defer release()
	defer a.reset()

	a.op = op
	a.kern = kernelFor(op)
	if init != nil {
		a.init = init
		copyInit(p, a.v, init)
	} else {
		a.init = a.v
	}
	if p.blocked != nil {
		return a.solveBlocked(ctx, opt)
	}
	if err := parallel.ForCtx(ctx, len(p.initDst), opt.Procs, a.initBody); err != nil {
		return err
	}
	for r := range p.rounds {
		rd := &p.rounds[r]
		if err := ctx.Err(); err != nil {
			return err
		}
		a.round = rd
		if g := len(rd.gatherDst); g > 0 {
			if err := parallel.ForCtx(ctx, g, opt.Procs, a.gatherBody); err != nil {
				return err
			}
		}
		if err := parallel.ForCtx(ctx, rd.pairs(), opt.Procs, a.applyBody); err != nil {
			return err
		}
	}
	return nil
}

// solveBlocked runs the three blocked-scan phases (reduce, combine tree,
// prefix apply — see blocked.go) on the arena's pre-bound bodies. The
// segment-level loops dispatch through ForCtxWeighted so the per-item grain
// cutover accounts for each segment's blockedSegLen cells of work. Called
// with op/kern/init already bound by solve; shares its error contract.
func (a *Arena[T]) solveBlocked(ctx context.Context, opt Options) error {
	b := a.plan.blocked
	n := b.numSegs()
	if err := parallel.ForCtxWeighted(ctx, n, opt.Procs, blockedSegLen, a.reduceBody); err != nil {
		return err
	}
	for a.stride = 1; a.stride < b.maxSegs; a.stride *= 2 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := parallel.ForCtx(ctx, n, opt.Procs, a.treeBody); err != nil {
			return err
		}
		a.sum, a.sum2 = a.sum2, a.sum
	}
	return parallel.ForCtxWeighted(ctx, n, opt.Procs, blockedSegLen, a.applyBlkBody)
}

// reset drops the per-solve bindings so a pooled arena retains no caller
// references.
func (a *Arena[T]) reset() {
	a.op, a.kern, a.init, a.round = nil, nil, nil, nil
}

// Plan returns the plan this arena's scratch is sized for.
func (a *Arena[T]) Plan() *Plan { return a.plan }
