package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file implements the persistent worker gang: a fixed set of goroutines
// parked on a lightweight round-dispatch mechanism, so the O(log n) parallel
// rounds of one solve reuse the same workers instead of paying goroutine
// spawn + WaitGroup churn per round. A gang is created once per solve (see
// EnsureGang) or once per server worker, pinned into the context, and picked
// up transparently by ForCtx/ForEachCtx. Dispatch of one round costs k-1
// channel sends, one atomic countdown, and at most one channel receive — no
// allocation.
//
// Protocol (one round):
//
//  1. the dispatcher (the caller's goroutine, worker 0) publishes the round
//     state (ctx, n, k, body), resets the failure latch, stores k into the
//     pending countdown, and sends one token to each of the k-1 helpers;
//  2. every worker — dispatcher included — runs its static contiguous chunk
//     of [0, n) in ctxGrain sub-chunks, checking cancellation and peer
//     failure between them (the ForCtx contract);
//  3. each helper decrements pending when done; whoever decrements it to
//     zero (helper or dispatcher) owns the round's end: a helper signals the
//     done channel, the dispatcher skips the receive.
//
// The pending countdown gives the dispatcher's final read of the failure
// latch a happens-before edge from every helper's writes, so no lock is held
// on the hot path.

// gangDisabled is the global kill switch (see SetGangEnabled): when set,
// ForCtx ignores pinned gangs and EnsureGang creates none, restoring the
// spawn-per-round scheduling. Fuzzers flip it to prove both scheduling paths
// are observationally identical.
var gangDisabled atomic.Bool

// SetGangEnabled globally enables (default) or disables gang scheduling and
// reports whether it was enabled before. Intended for tests and fuzzers that
// exercise the spawn-per-round fallback; not meant for production tuning.
func SetGangEnabled(on bool) bool {
	return !gangDisabled.Swap(!on)
}

func gangEnabled() bool { return !gangDisabled.Load() }

// Gang is a persistent set of parallel workers: procs-1 parked helper
// goroutines plus the dispatching caller. Rounds are dispatched through
// ForCtx on a context carrying the gang — see WithGang and EnsureGang; Gang
// has no public round API of its own. A gang runs one round at a time:
// concurrent or re-entrant dispatch attempts (a ForCtx inside a ForCtx
// body) detect the busy gang and fall back to spawn-per-round, so nesting
// keeps today's semantics. Close releases the helpers; the owner
// must not Close while a round is in flight (joining every ForCtx first is
// enough, and EnsureGang's release function guarantees it by construction).
type Gang struct {
	procs int
	wake  []chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup

	pending atomic.Int32
	busy    atomic.Bool
	closed  atomic.Bool

	// Round state: written by the dispatcher before the wake sends, read by
	// helpers strictly between their wake receive and pending decrement.
	ctx  context.Context
	n, k int
	body func(lo, hi int) error
	stop atomic.Bool
	ferr atomic.Pointer[error]
}

// NewGang starts a gang of procs workers (procs-1 parked helper goroutines;
// the dispatching caller is worker 0). procs <= 0 means DefaultProcs(). The
// helpers park on a channel receive and cost nothing while idle; call Close
// to release them.
func NewGang(procs int) *Gang {
	if procs <= 0 {
		procs = DefaultProcs()
	}
	g := &Gang{procs: procs, done: make(chan struct{})}
	g.wake = make([]chan struct{}, procs-1)
	for w := range g.wake {
		g.wake[w] = make(chan struct{}, 1)
		g.wg.Add(1)
		go g.helper(w)
	}
	return g
}

// Close releases the gang's helper goroutines and waits for them to exit.
// Safe to call twice; must not race an in-flight round.
func (g *Gang) Close() {
	if g == nil || !g.closed.CompareAndSwap(false, true) {
		return
	}
	for _, ch := range g.wake {
		close(ch)
	}
	g.wg.Wait()
}

// helper is the parked body of helper w (worker id w+1): it wakes once per
// dispatched round, runs its chunk, and signals the round's end if it is the
// last worker standing.
func (g *Gang) helper(w int) {
	defer g.wg.Done()
	for range g.wake[w] {
		g.runWorker(w + 1)
		if g.pending.Add(-1) == 0 {
			g.done <- struct{}{}
		}
	}
}

// runWorker executes worker w's static contiguous chunk of the current
// round, walking it in ctxGrain sub-chunks with the ForCtx cancellation and
// failure-latch checks in between. It never panics: body panics are caught
// by runRange, so the countdown in helper always completes.
func (g *Gang) runWorker(w int) {
	n, k := g.n, g.k
	q, r := n/k, n%k
	lo := w * q
	if w < r {
		lo += w
	} else {
		lo += r
	}
	hi := lo + q
	if w < r {
		hi++
	}
	step := (hi - lo + ctxGrain - 1) / ctxGrain
	if step < 1 {
		step = 1
	}
	for s := lo; s < hi; s += step {
		if g.stop.Load() || g.ctx.Err() != nil {
			return
		}
		e := s + step
		if e > hi {
			e = hi
		}
		if err := runRange(g.body, s, e); err != nil {
			g.setErr(err)
			return
		}
	}
}

// setErr latches the round's first failure (in completion order) and stops
// the other workers at their next sub-chunk boundary.
func (g *Gang) setErr(err error) {
	if g.ferr.CompareAndSwap(nil, &err) {
		g.stop.Store(true)
	}
}

// tryForCtx dispatches one ForCtx round on the gang. It reports ok = false
// — caller must fall back to spawn-per-round — when the gang is closed,
// already mid-round (re-entrant or concurrent use), or the round is not
// worth a dispatch. k is the caller's grain-clamped worker count; it is
// further clamped to the gang size.
func (g *Gang) tryForCtx(ctx context.Context, n, k int, body func(lo, hi int) error) (error, bool) {
	if g == nil || g.closed.Load() {
		return nil, false
	}
	if k > g.procs {
		k = g.procs
	}
	if k <= 1 {
		return nil, false
	}
	if !g.busy.CompareAndSwap(false, true) {
		return nil, false
	}
	g.ctx, g.n, g.k, g.body = ctx, n, k, body
	g.stop.Store(false)
	g.ferr.Store(nil)
	g.pending.Store(int32(k))
	for w := 0; w < k-1; w++ {
		g.wake[w] <- struct{}{}
	}
	g.runWorker(0)
	if g.pending.Add(-1) != 0 {
		<-g.done
	}
	var err error
	if p := g.ferr.Load(); p != nil {
		err = *p
	}
	g.body, g.ctx = nil, nil
	g.busy.Store(false)
	if err != nil {
		return err, true
	}
	return ctx.Err(), true
}

// gangKey is the context key WithGang stores a gang under; zero-size so
// lookups never allocate.
type gangKey struct{}

// WithGang returns a context carrying g: ForCtx and ForEachCtx calls under
// it dispatch their rounds on the gang instead of spawning goroutines
// (falling back transparently while the gang is busy with another round).
// A nil g returns ctx unchanged.
func WithGang(ctx context.Context, g *Gang) context.Context {
	if g == nil {
		return ctx
	}
	return context.WithValue(ctx, gangKey{}, g)
}

// GangFrom returns the gang pinned into ctx by WithGang, or nil.
func GangFrom(ctx context.Context) *Gang {
	g, _ := ctx.Value(gangKey{}).(*Gang)
	return g
}

// noRelease is EnsureGang's no-op release, shared so the warm path (a gang
// already pinned) allocates nothing.
var noRelease = func() {}

// EnsureGang makes sure ctx carries a worker gang for the duration of one
// solve and returns the (possibly wrapped) context plus a release function
// the caller must defer. If ctx already carries a gang — e.g. a server
// worker owns one across solves — it is reused and release is a no-op;
// otherwise a fresh gang of grainProcs(procs, n) workers is started and
// release closes it, where n is the solve's widest parallel round (cell
// count): the gang is exactly as wide as the solve's rounds can use, so a
// p-processor simulation keeps its width while degenerate requests (huge
// Procs against a tiny system) collapse instead of parking a million
// helpers. Solvers call this once at their entry point so all O(log n)
// rounds of the solve share one set of workers.
func EnsureGang(ctx context.Context, procs, n int) (context.Context, func()) {
	if !gangEnabled() {
		return ctx, noRelease
	}
	if GangFrom(ctx) != nil {
		return ctx, noRelease
	}
	if n <= 1 {
		return ctx, noRelease
	}
	procs = grainProcs(procs, n)
	if procs <= 1 {
		return ctx, noRelease
	}
	g := NewGang(procs)
	return WithGang(ctx, g), g.Close
}
