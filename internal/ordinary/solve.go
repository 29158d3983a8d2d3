package ordinary

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"indexedrec/internal/core"
	"indexedrec/internal/parallel"
)

// ErrInitLen is returned by SolveCtx when len(init) != s.M. The legacy
// Solve wrapper converts it back into the historical panic.
var ErrInitLen = errors.New("ordinary: init length does not match cell count")

// Options configure the parallel solver.
type Options struct {
	// Procs is the number of goroutines used per round; <= 0 means
	// GOMAXPROCS. The paper's work-shared version: each of P processors
	// owns ~n/P cells per round, giving T(n,P) = (n/P)·log n.
	Procs int
	// OnRound, if non-nil, is called after every completed round with the
	// jumper state — used by the Fig. 2 visualization and by tests probing
	// lock-step behaviour. Called sequentially, never concurrently.
	OnRound func(round int, j *JumperState)
}

// Result is the outcome of a parallel ordinary-IR solve.
type Result[T any] struct {
	// Values is the final array, identical (for exactly associative ops)
	// to core.RunSequential.
	Values []T
	// Roots[x] is the cell whose initial value the trace of x begins with;
	// Roots[x] == x for unwritten cells. Package moebius consumes this. Set
	// by SolveCtx only: plan replays leave it nil, and Plan.Roots derives
	// the same array from a compiled plan.
	Roots []int
	// Rounds is the number of pointer-jumping rounds executed
	// (= ⌈log₂ L⌉ for longest chain L, plus the final no-change round).
	Rounds int
	// Combines is the total number of ⊗ applications across all rounds —
	// the algorithm's work term.
	Combines int64
}

// JumperState exposes the lock-step state after a round, for visualization.
type JumperState struct {
	// Next is the current pointer array (-1 = trace complete).
	Next []int
	// Active is the number of cells whose pointer is still live.
	Active int
}

// Solve runs the parallel pointer-jumping algorithm. The system must be
// ordinary with distinct g; init must have length s.M (violations panic,
// the historical contract — use SolveCtx for the error-returning, panic-safe
// API). The returned values equal the sequential loop's output for any
// associative op (bit-for-bit when op is exactly associative; up to rounding
// for floats).
func Solve[T any](s *core.System, op core.Semigroup[T], init []T, opt Options) (*Result[T], error) {
	res, err := SolveCtx(context.Background(), s, op, init, opt)
	if errors.Is(err, ErrInitLen) {
		panic("ordinary: Solve: len(init) != s.M")
	}
	return res, err
}

// SolveCtx is the hardened entry point: identical algorithm, but every
// failure — invalid system, init-length mismatch, a panic or Abort inside
// op.Combine or the OnRound hook, or cancellation of ctx — returns as an
// error with all worker goroutines joined. Cancellation is observed between
// chunks within a round and between rounds, so a solve on a cancelled
// context stops promptly with ctx.Err().
func SolveCtx[T any](ctx context.Context, s *core.System, op core.Semigroup[T], init []T, opt Options) (res *Result[T], err error) {
	defer parallel.RecoverTo(&err)
	fr, err := BuildForest(s)
	if err != nil {
		return nil, err
	}
	if len(init) != s.M {
		return nil, fmt.Errorf("%w: len(init) = %d, want s.M = %d", ErrInitLen, len(init), s.M)
	}
	// One worker gang carries every parallel round of the solve; the
	// monomorphized kernel (when op provides one) replaces per-element
	// interface dispatch in the combine loops. Both are transparent:
	// operands and order are unchanged.
	ctx, release := parallel.EnsureGang(ctx, opt.Procs, s.M)
	defer release()
	kern := kernelFor(op)

	m := s.M
	v := make([]T, m)
	nx := make([]int, m)
	rt := make([]int, m)
	v2 := make([]T, m)
	nx2 := make([]int, m)
	rt2 := make([]int, m)
	// Initialization phase — fully parallel over cells (the paper's
	// "initially all traces ... can be computed in parallel"). Both buffers
	// start identical so unwritten cells survive any number of swaps.
	var initCombines atomic.Int64
	if err := parallel.ForCtx(ctx, m, opt.Procs, func(lo, hi int) error {
		var local int64
		for x := lo; x < hi; x++ {
			switch n, src := fr.Next[x], fr.InitF[x]; {
			case n >= 0:
				v[x], nx[x], rt[x] = init[x], int(n), x
			case src >= 0:
				v[x] = op.Combine(init[src], init[x])
				nx[x], rt[x] = -1, int(src)
				local++
			default:
				v[x], nx[x], rt[x] = init[x], -1, x
			}
			v2[x], nx2[x], rt2[x] = v[x], nx[x], rt[x]
		}
		initCombines.Add(local)
		return nil
	}); err != nil {
		return nil, err
	}

	// Lock-step rounds over the written cells only, with double buffering
	// so every round reads the previous round's state (synchronous PRAM
	// semantics). Cells with nx < 0 are done and just copy forward.
	cells := s.G
	res = &Result[T]{Rounds: 0, Combines: initCombines.Load()}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var changed atomic.Bool
		var roundCombines atomic.Int64
		if err := parallel.ForCtx(ctx, len(cells), opt.Procs, func(lo, hi int) error {
			var local int64
			if kern != nil {
				// Monomorphized value pass, then the generic pointer pass —
				// same combines on the same operands as the fused loop.
				local = int64(kern.JumpRound(v2, v, nx, cells, lo, hi))
				for k := lo; k < hi; k++ {
					x := cells[k]
					if n := nx[x]; n >= 0 {
						nx2[x], rt2[x] = nx[n], rt[n]
					} else {
						nx2[x], rt2[x] = -1, rt[x]
					}
				}
			} else {
				for k := lo; k < hi; k++ {
					x := cells[k]
					n := nx[x]
					if n < 0 {
						v2[x], nx2[x], rt2[x] = v[x], -1, rt[x]
						continue
					}
					v2[x] = op.Combine(v[n], v[x])
					nx2[x] = nx[n]
					rt2[x] = rt[n]
					local++
				}
			}
			if local > 0 {
				changed.Store(true)
				roundCombines.Add(local)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if !changed.Load() {
			break
		}
		res.Rounds++
		res.Combines += roundCombines.Load()
		v, v2 = v2, v
		nx, nx2 = nx2, nx
		rt, rt2 = rt2, rt
		if opt.OnRound != nil {
			active := 0
			for _, x := range cells {
				if nx[x] >= 0 {
					active++
				}
			}
			opt.OnRound(res.Rounds, &JumperState{Next: nx, Active: active})
		}
	}

	res.Values = v
	res.Roots = rt
	return res, nil
}
