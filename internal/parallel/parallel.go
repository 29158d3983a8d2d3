package parallel

import (
	"errors"
	"runtime"
	"sync"
)

// DefaultProcs returns the processor count used when a caller passes p <= 0:
// the runtime's GOMAXPROCS setting.
func DefaultProcs() int {
	return runtime.GOMAXPROCS(0)
}

// clampProcs normalizes a requested processor count against n work items.
func clampProcs(p, n int) int {
	if p <= 0 {
		p = DefaultProcs()
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// minGrain is the smallest chunk worth crossing a goroutine boundary: with
// n work items and p requested processors, For and ForCtx cap the worker
// count at ⌈n/minGrain⌉ so n slightly above p never fans 1–2 element chunks
// out to p goroutines (whose handoff costs more than the work). Chunks and
// the SPMD primitives are exempt: their callers rely on an exact partition
// or party count.
const minGrain = 32

// grainProcs clamps a requested processor count against n like clampProcs,
// then applies the minGrain sequential cutover.
func grainProcs(p, n int) int {
	p = clampProcs(p, n)
	if maxp := (n + minGrain - 1) / minGrain; p > maxp {
		p = maxp
	}
	return p
}

// For runs body(lo, hi) over a partition of [0, n) into at most p contiguous
// chunks, one goroutine per chunk, and waits for all of them. p <= 0 means
// DefaultProcs(). n <= 0 is a no-op. Chunks differ in size by at most one,
// so the load is balanced for uniform-cost bodies; chunks smaller than the
// minimum grain run on fewer workers instead.
func For(n, p int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p = grainProcs(p, n)
	if p == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	q, r := n/p, n%p
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// Chunks partitions [0, n) into at most p nearly-equal contiguous ranges and
// returns their boundaries as (lo, hi) pairs. It is exported so lock-step
// algorithms can pin a persistent goroutine per chunk across many rounds.
func Chunks(n, p int) [][2]int {
	if n <= 0 {
		return nil
	}
	p = clampProcs(p, n)
	out := make([][2]int, 0, p)
	q, r := n/p, n%p
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + q
		if w < r {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// ErrBarrierBroken is the error Wait returns after Break(nil); Break with a
// non-nil cause returns that cause instead.
var ErrBarrierBroken = errors.New("parallel: barrier broken")

// Barrier is a reusable cyclic barrier for a fixed party count. All parties
// call Wait; the last arrival releases the rest and the barrier resets for
// the next round. A broken barrier (see Break) releases current and future
// waiters with an error, so the failure of one lock-step party can never
// deadlock its peers. The zero value is not usable; call NewBarrier.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	phase   uint64
	broken  error
}

// NewBarrier returns a barrier for the given number of parties (>= 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("parallel: NewBarrier requires parties >= 1")
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait for the current phase and
// returns nil, or returns the break cause immediately (without blocking, and
// releasing everyone already blocked) once the barrier is broken.
func (b *Barrier) Wait() error {
	b.mu.Lock()
	if b.broken != nil {
		err := b.broken
		b.mu.Unlock()
		return err
	}
	phase := b.phase
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return nil
	}
	for phase == b.phase && b.broken == nil {
		b.cond.Wait()
	}
	err := b.broken
	b.mu.Unlock()
	return err
}

// Break permanently breaks the barrier with the given cause (nil means
// ErrBarrierBroken): every current and future Wait returns the cause. The
// first Break wins; later calls are no-ops. It is how a failed lock-step
// worker guarantees its peers cannot block forever.
func (b *Barrier) Break(cause error) {
	if cause == nil {
		cause = ErrBarrierBroken
	}
	b.mu.Lock()
	if b.broken == nil {
		b.broken = cause
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// Broken returns the break cause, or nil while the barrier is intact.
func (b *Barrier) Broken() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}

// SPMD launches p goroutines running body(id, barrier) and waits for all of
// them — the single-program-multiple-data shape of the paper's lock-step
// algorithms. The barrier passed to body has exactly p parties, so a Wait
// inside body is a whole-machine synchronization round.
func SPMD(p int, body func(id int, b *Barrier)) {
	if p < 1 {
		p = 1
	}
	b := NewBarrier(p)
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			body(id, b)
		}(id)
	}
	wg.Wait()
}
