package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the runtime's parallel loop: ForCtx, its weighted form
// ForCtxWeighted and its per-item form ForEachCtx, plus the panic-recovery
// helpers the solvers' error-returning entry points are built on.
//
// Contract shared by ForCtx, ForCtxWeighted and ForEachCtx:
//
//   - a panic in a worker goroutine is recovered and surfaced to the caller
//     as a *PanicError (never crashes the process, never leaks the worker);
//   - a body returning a non-nil error stops the run; the first failure
//     (in completion order) is the one returned;
//   - cancellation of ctx is observed between chunks and surfaces as
//     ctx.Err();
//   - all worker goroutines are joined before the call returns, whatever
//     the outcome — callers can assert no goroutine leaks.

// PanicError is a worker panic converted into an error by the panic-safe
// runtime. Value is the original panic payload; Stack is the worker's stack
// at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error reports the recovered panic value.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", p.Value)
}

// Unwrap exposes a wrapped error payload (panic(err)) to errors.Is/As.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// abortError is the sentinel payload of Abort: a controlled failure that
// the recovery path unwraps back to the original error instead of reporting
// a panic.
type abortError struct{ err error }

// Abort aborts the surrounding panic-safe parallel region (ForCtx,
// ForEachCtx, or any solver built on them) with err. It exists for
// callbacks whose interface has no error return — e.g. a Semigroup.Combine
// that detects an unrecoverable condition mid-solve. Calling Abort outside
// a panic-safe region panics with err itself.
func Abort(err error) {
	if err == nil {
		err = errors.New("parallel: Abort(nil)")
	}
	panic(abortError{err})
}

// RecoverTo converts an in-flight panic into an error assigned to *errp,
// for use as `defer parallel.RecoverTo(&err)` at the top of error-returning
// APIs that invoke user callbacks outside a ForCtx body (validation hooks,
// per-round callbacks). Abort payloads unwrap to their original error; any
// other panic becomes a *PanicError. An existing non-nil *errp is kept.
func RecoverTo(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if *errp != nil {
		return
	}
	if a, ok := r.(abortError); ok {
		*errp = a.err
		return
	}
	*errp = &PanicError{Value: r, Stack: debug.Stack()}
}

// runRange runs body(lo, hi), converting panics (including Abort) into a
// returned error. It takes the range as arguments so the hot replay path
// never allocates a closure per sub-chunk.
func runRange(body func(lo, hi int) error, lo, hi int) (err error) {
	defer RecoverTo(&err)
	return body(lo, hi)
}

// firstErr records the first failure of a parallel region.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// ctxGrain is the number of sub-chunks each ForCtx worker cuts its range
// into: workers re-check cancellation and peer failure between sub-chunks,
// so a larger grain gives finer-grained cancellation at the cost of a few
// more body calls per round.
const ctxGrain = 4

// ForCtx is the panic-safe, cancellable parallel loop: body(lo, hi) runs
// over a partition of [0, n) on up to p workers (p <= 0 means DefaultProcs;
// n <= 0 runs nothing; chunks below the minimum grain shrink the worker
// count instead of fanning out). The partition is static — worker w owns
// the w-th contiguous range, the ranges differing in size by at most one,
// so a solver calling ForCtx once per round keeps each range cache-warm on
// the same worker across rounds — and every worker walks its range in
// ctxGrain sub-chunks, checking for cancellation and earlier failures
// between them. When ctx carries a worker gang (WithGang,
// EnsureGang) the round is dispatched on the gang's parked workers with no
// goroutine spawns and no allocation; otherwise, or while the gang is busy
// with an enclosing round, one goroutine per chunk is spawned as before.
// Returns the first body error or recovered panic, else ctx.Err() if the
// run was cut short by cancellation, else nil.
func ForCtx(ctx context.Context, n, p int, body func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	k := grainProcs(p, n)
	if k == 1 {
		return forCtxSeq(ctx, n, body)
	}
	if gangEnabled() {
		if g := GangFrom(ctx); g != nil {
			if err, ok := g.tryForCtx(ctx, n, k, body); ok {
				return err
			}
		}
	}
	return forCtxSpawn(ctx, n, k, body)
}

// ForCtxWeighted is ForCtx for bodies whose items each carry roughly weight
// units of underlying work (e.g. one item = one fixed-length segment of
// cells). ForCtx's minimum-grain cutover counts items, so a round over a few
// hundred heavy items would be throttled to one or two workers even though
// each item amortizes the handoff cost on its own; here the cutover divides
// by weight instead. weight >= the minimum grain disables the cap entirely
// (every item is worth a handoff), which also keeps n·weight from
// overflowing. weight <= 0 behaves like ForCtx.
func ForCtxWeighted(ctx context.Context, n, p, weight int, body func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	k := clampProcs(p, n)
	if weight < 1 {
		weight = 1
	}
	if weight < minGrain {
		g := (minGrain + weight - 1) / weight
		if maxp := (n + g - 1) / g; k > maxp {
			k = maxp
		}
	}
	if k == 1 {
		return forCtxSeq(ctx, n, body)
	}
	if gangEnabled() {
		if g := GangFrom(ctx); g != nil {
			if err, ok := g.tryForCtx(ctx, n, k, body); ok {
				return err
			}
		}
	}
	return forCtxSpawn(ctx, n, k, body)
}

// forCtxSeq is ForCtx's single-worker path: the dispatcher walks [0, n)
// itself in ctxGrain sub-chunks, polling for cancellation in between.
func forCtxSeq(ctx context.Context, n int, body func(lo, hi int) error) error {
	step := (n + ctxGrain - 1) / ctxGrain
	if step < 1 {
		step = 1
	}
	for s := 0; s < n; s += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		e := s + step
		if e > n {
			e = n
		}
		if err := runRange(body, s, e); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// forCtxSpawn is ForCtx's spawn-per-round path: one goroutine per chunk,
// joined before return. k must already be clamped against n.
func forCtxSpawn(ctx context.Context, n, k int, body func(lo, hi int) error) error {
	var fe firstErr
	var stop atomic.Bool
	worker := func(lo, hi int) {
		step := (hi - lo + ctxGrain - 1) / ctxGrain
		if step < 1 {
			step = 1
		}
		for s := lo; s < hi; s += step {
			if stop.Load() || ctx.Err() != nil {
				return
			}
			e := s + step
			if e > hi {
				e = hi
			}
			if err := runRange(body, s, e); err != nil {
				fe.set(err)
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(k)
	q, r := n/k, n%k
	lo := 0
	for w := 0; w < k; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			worker(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	if err := fe.get(); err != nil {
		return err
	}
	return ctx.Err()
}

// ForEachCtx is the per-item convenience over ForCtx: body(i) for every i
// in [0, n), stopping at the first error, panic, or cancellation.
func ForEachCtx(ctx context.Context, n, p int, body func(i int) error) error {
	return ForCtx(ctx, n, p, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	})
}
