package ordinary_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/workload"
)

// pooledPlans compiles one blocked and one pointer-jumping plan of m cells.
func pooledPlans(t *testing.T, m int) []*ordinary.Plan {
	t.Helper()
	rng := rand.New(rand.NewSource(1403))
	var plans []*ordinary.Plan
	for _, s := range []*core.System{workload.Chain(m - 1), workload.RandomOrdinary(rng, m, m)} {
		p, err := ordinary.CompilePlan(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	if !plans[0].BlockedScan() || plans[1].BlockedScan() {
		t.Fatalf("schedules %s/%s, want blocked-scan/pointer-jumping", plans[0].Schedule(), plans[1].Schedule())
	}
	return plans
}

// pooledInit returns a distinct init array per seed.
func pooledInit(m int, seed int64) []int64 {
	return workload.InitInt64(rand.New(rand.NewSource(seed)), m, 1<<30)
}

// TestPooledReplayResultsDoNotAlias checks that pooled replays hand out
// independent results: two consecutive results share no storage, and
// scribbling over one changes neither the other nor a later replay.
func TestPooledReplayResultsDoNotAlias(t *testing.T) {
	ctx := context.Background()
	opt := ordinary.Options{Procs: 4}
	for _, p := range pooledPlans(t, 4096) {
		init1, init2 := pooledInit(p.M, 1), pooledInit(p.M, 2)
		want1, err := ordinary.SolvePlanCtx[int64](ctx, p, core.IntAdd{}, init1, opt)
		if err != nil {
			t.Fatal(err)
		}
		want2, err := ordinary.SolvePlanCtx[int64](ctx, p, core.IntAdd{}, init2, opt)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, init1, opt)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, init2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if &r1.Values[0] == &r2.Values[0] {
			t.Fatalf("%s: consecutive pooled results share a values array", p.Schedule())
		}
		if r1.Roots != nil || r2.Roots != nil {
			t.Errorf("%s: pooled replay results carry a roots array", p.Schedule())
		}
		sameValues(t, p.Schedule()+" first result after second replay", r1.Values, want1.Values)
		for x := range r1.Values {
			r1.Values[x] = -1
		}
		sameValues(t, p.Schedule()+" second result after scribbling the first", r2.Values, want2.Values)
		r3, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, init1, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, p.Schedule()+" replay after scribbling", r3.Values, want1.Values)
	}
}

func sameValues(t *testing.T, what string, got, want []int64) {
	t.Helper()
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("%s: cell %d = %d, want %d", what, x, got[x], want[x])
		}
	}
}

// TestPooledReplayConcurrent runs pooled replays of one plan from many
// goroutines at once (the race gate for the shared arena pool): every
// result must match the reference replay of its own init array.
func TestPooledReplayConcurrent(t *testing.T) {
	ctx := context.Background()
	const workers, reps = 6, 8
	for _, p := range pooledPlans(t, 2048) {
		inits := make([][]int64, workers)
		wants := make([][]int64, workers)
		for w := range inits {
			inits[w] = pooledInit(p.M, int64(10+w))
			res, err := ordinary.SolvePlanCtx[int64](ctx, p, core.IntAdd{}, inits[w], ordinary.Options{Procs: 1})
			if err != nil {
				t.Fatal(err)
			}
			wants[w] = res.Values
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < reps; r++ {
					res, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, inits[w], ordinary.Options{Procs: 2})
					if err != nil {
						errs <- err
						return
					}
					for x, v := range res.Values {
						if v != wants[w][x] {
							t.Errorf("%s worker %d rep %d cell %d: %d, want %d", p.Schedule(), w, r, x, v, wants[w][x])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestPooledReplayAllocs bounds a warm pooled replay to two allocations:
// the result's values array and the result itself. The scratch comes from
// the plan's pool and the replay writes straight into the result.
func TestPooledReplayAllocs(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race job")
	}
	gang := parallel.NewGang(4)
	defer gang.Close()
	ctx := parallel.WithGang(context.Background(), gang)
	opt := ordinary.Options{Procs: 4}
	for _, p := range pooledPlans(t, 4096) {
		init := pooledInit(p.M, 3)
		if _, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, init, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, init, opt); err != nil {
				panic(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s warm pooled replay: %.0f allocs/op, want <= 2", p.Schedule(), allocs)
		}
	}
}

// BenchmarkChainReplayVsLoop pairs a warm pooled int64-add replay of the
// run-form Chain(2²²) plan at P=2 with the plain loop a programmer would
// write for the same scan, allocating its result as the replay does. The
// run form folds init straight into the result with no cell table, so the
// replay's ns/op should stay within about 1.2x of the loop's.
func BenchmarkChainReplayVsLoop(b *testing.B) {
	s := workload.Chain(1 << 22)
	p, err := ordinary.CompilePlan(context.Background(), s)
	if err != nil {
		b.Fatal(err)
	}
	init := pooledInit(s.M, 4)
	gang := parallel.NewGang(2)
	defer gang.Close()
	ctx := parallel.WithGang(context.Background(), gang)
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ordinary.SolvePlanPooledCtx[int64](ctx, p, core.IntAdd{}, init, ordinary.Options{Procs: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]int64, len(init))
			acc := init[0]
			out[0] = acc
			for x := 1; x < len(init); x++ {
				acc += init[x]
				out[x] = acc
			}
		}
	})
}
