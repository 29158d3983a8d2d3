package indexedrec

// Test gates for the hot-path engine: warm plan replays through arenas must
// be allocation-free in steady state, and a persistent worker gang must be
// safely reusable across many concurrent solves (the irserved worker
// pattern). The allocation gates are skipped under the race detector, whose
// instrumentation allocates; the concurrency tests are exactly what -race
// runs are for.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

// hotpathInputs builds one random distinct-g system plus Möbius coefficient
// rows and initial values for the allocation and reuse gates.
func hotpathInputs(t testing.TB, m, n int) (g, f []int, a, b, c, d, x0 []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	s := workload.RandomOrdinary(rng, m, n)
	a = make([]float64, s.N)
	b = make([]float64, s.N)
	c = make([]float64, s.N)
	d = make([]float64, s.N)
	for i := 0; i < s.N; i++ {
		a[i] = 1 + rng.Float64()
		b[i] = rng.Float64()
		c[i] = rng.Float64() / 16
		d[i] = 1 + rng.Float64()
	}
	x0 = make([]float64, s.M)
	for x := range x0 {
		x0[x] = rng.Float64()
	}
	return s.G, s.F, a, b, c, d, x0
}

// TestWarmReplayZeroAlloc asserts the PR's headline allocation contract:
// once a plan is compiled and an arena built, every further replay —
// ordinary (IntAdd kernel), linear, and full Möbius — performs zero
// allocations, with the persistent gang pinned on the context exactly as a
// server worker would hold it.
func TestWarmReplayZeroAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	const m, n = 4096, 4096
	g, f, a, b, c, d, x0 := hotpathInputs(t, m, n)
	ctx := context.Background()
	gang := parallel.NewGang(8)
	defer gang.Close()
	gctx := parallel.WithGang(ctx, gang)
	opt := ordinary.Options{Procs: 8}

	rng := rand.New(rand.NewSource(8))
	sys := workload.RandomOrdinary(rng, m, n)
	init := workload.InitInt64(rng, sys.M, 1<<20)
	op, err := ordinary.CompilePlan(ctx, sys)
	if err != nil {
		t.Fatalf("ordinary.CompilePlan: %v", err)
	}
	oar := ordinary.NewArena[int64](op)
	if _, err := oar.SolveCtx(gctx, ir.IntAdd{}, init, opt); err != nil {
		t.Fatalf("ordinary warm replay: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := oar.SolveCtx(gctx, ir.IntAdd{}, init, opt); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("ordinary warm replay: %.0f allocs/op, want 0", allocs)
	}

	mp, err := moebius.CompilePlan(ctx, m, g, f)
	if err != nil {
		t.Fatalf("moebius.CompilePlan: %v", err)
	}
	mar := mp.NewArena()
	if _, err := mp.SolveArenaCtx(gctx, mar, a, b, c, d, x0, opt); err != nil {
		t.Fatalf("moebius warm replay: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := mp.SolveArenaCtx(gctx, mar, a, b, c, d, x0, opt); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("moebius warm replay: %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := mp.SolveArenaCtx(gctx, mar, a, b, nil, nil, x0, opt); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("linear warm replay: %.0f allocs/op, want 0", allocs)
	}
}

// TestBlockedWarmReplayZeroAlloc is TestWarmReplayZeroAlloc for the
// blocked-scan schedule: a long-chain plan (auto-selected blocked) must
// replay warm with zero allocations — the segment-summary double buffers
// come out of the arena, and the double-buffer swap allocates nothing.
// Both the kernel (IntAdd) and primed replay paths are gated.
func TestBlockedWarmReplayZeroAlloc(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	const n = 1 << 15
	ctx := context.Background()
	gang := parallel.NewGang(8)
	defer gang.Close()
	gctx := parallel.WithGang(ctx, gang)
	opt := ordinary.Options{Procs: 8}

	sys := workload.Chain(n)
	rng := rand.New(rand.NewSource(9))
	init := workload.InitInt64(rng, sys.M, 1<<20)
	p, err := ordinary.CompilePlan(ctx, sys)
	if err != nil {
		t.Fatalf("ordinary.CompilePlan: %v", err)
	}
	if !p.BlockedScan() {
		t.Fatalf("Chain(%d) plan schedule = %s, want blocked-scan", n, p.Schedule())
	}
	ar := ordinary.NewArena[int64](p)
	if _, err := ar.SolveCtx(gctx, ir.IntAdd{}, init, opt); err != nil {
		t.Fatalf("blocked warm replay: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := ar.SolveCtx(gctx, ir.IntAdd{}, init, opt); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("blocked warm replay: %.0f allocs/op, want 0", allocs)
	}
	if !p.Primeable() {
		t.Fatal("Chain plan should be primeable")
	}
	copy(ar.Buf(), init)
	if allocs := testing.AllocsPerRun(10, func() {
		copy(ar.Buf(), init)
		if _, err := ar.SolvePrimedCtx(gctx, ir.IntAdd{}, opt); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Errorf("blocked primed replay: %.0f allocs/op, want 0", allocs)
	}
}

// TestBlockedGangReuseConcurrentSolves shares one persistent gang across
// concurrent blocked-scan replays on per-goroutine arenas — the race gate
// for the three-phase schedule's gang dispatch and the arena's summary
// double-buffering. Every replay must be bit-identical to a reference.
func TestBlockedGangReuseConcurrentSolves(t *testing.T) {
	const n, workers = 1 << 13, 32
	ctx := context.Background()
	opt := ordinary.Options{Procs: 4}
	sys := workload.Chains(n, 4)
	rng := rand.New(rand.NewSource(10))
	init := workload.InitInt64(rng, sys.M, 1<<20)
	p, err := ordinary.CompilePlan(ctx, sys)
	if err != nil {
		t.Fatalf("ordinary.CompilePlan: %v", err)
	}
	if !p.BlockedScan() {
		t.Fatalf("Chains(%d, 4) plan schedule = %s, want blocked-scan", n, p.Schedule())
	}
	ref, err := ordinary.SolvePlanCtx[int64](ctx, p, ir.IntAdd{}, init, opt)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	want := append([]int64(nil), ref.Values...)

	gang := parallel.NewGang(4)
	defer gang.Close()
	gctx := parallel.WithGang(ctx, gang)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := ordinary.NewArena[int64](p)
			for rep := 0; rep < 4; rep++ {
				out, err := ar.SolveCtx(gctx, ir.IntAdd{}, init, opt)
				if err != nil {
					errs <- err
					return
				}
				for x, v := range out.Values {
					if v != want[x] {
						t.Errorf("concurrent blocked replay cell %d: %d != %d", x, v, want[x])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent blocked replay: %v", err)
	}
}

// TestGangReuseConcurrentSolves shares one persistent gang across many
// concurrent solves on per-goroutine arenas — the irserved worker-pool
// shape, where at most one solve wins the gang per round and the rest take
// the spawn path. Run under -race this is the gang-reuse data-race gate;
// every result must still be bit-identical to a reference solve.
func TestGangReuseConcurrentSolves(t *testing.T) {
	const m, n, workers = 512, 512, 32
	g, f, a, b, c, d, x0 := hotpathInputs(t, m, n)
	ctx := context.Background()
	opt := ordinary.Options{Procs: 4}

	mp, err := moebius.CompilePlan(ctx, m, g, f)
	if err != nil {
		t.Fatalf("moebius.CompilePlan: %v", err)
	}
	ref, err := mp.SolveArenaCtx(ctx, mp.NewArena(), a, b, c, d, x0, opt)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	want := append([]float64(nil), ref...)

	gang := parallel.NewGang(4)
	defer gang.Close()
	gctx := parallel.WithGang(ctx, gang)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := mp.NewArena()
			for rep := 0; rep < 4; rep++ {
				out, err := mp.SolveArenaCtx(gctx, ar, a, b, c, d, x0, opt)
				if err != nil {
					errs <- err
					return
				}
				for x, v := range out {
					if v != want[x] {
						t.Errorf("concurrent replay cell %d: %v != %v", x, v, want[x])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent replay: %v", err)
	}
}
