package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/internal/parallel"
	"indexedrec/internal/report"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

func init() {
	register("hotpath", "E18 — hot-path engine: gang + arena warm replays vs cold solves, allocation counts",
		"times warm arena replays against cold solves and counts allocations", runHotpath)
}

// hotpathProcs is the simulated processor count of the warm replays. Fixed
// rather than NumCPU-derived so the artifact is comparable across machines
// (the repo's experiments simulate p processors with p goroutines).
const hotpathProcs = 8

// runHotpath measures the steady-state warm path this PR builds: a compiled
// plan replayed through a reusable arena, with one persistent worker gang
// carrying all rounds and monomorphized kernels in the combine loops. For
// each family it reports the cold direct solve, the warm arena replay, the
// allocations per warm replay (which must be zero), and whether the warm
// values are bit-identical to the cold solve's. Machine-readable HOTPATH
// lines accompany the table so CI (and the -gate perf gate, which checks
// every family's warm_ms with no floor and no re-measure) can parse results
// without scraping the table.
func runHotpath(w io.Writer, opt Options) error {
	rng := rand.New(rand.NewSource(opt.seed()))
	coldReps, warmReps := 3, 10
	if opt.Quick {
		coldReps, warmReps = 2, 4
	}
	nOrd := opt.n(1 << 17)

	g, err := opt.gate("HOTPATH", "family", "warm_ms")
	if err != nil {
		return err
	}

	tb := report.NewTable(
		fmt.Sprintf("hot-path warm replays (procs=%d, cold x%d, warm x%d, best-of)", hotpathProcs, coldReps, warmReps),
		"family", "n", "cold ms", "warm ms", "speedup", "allocs/op", "identical")

	ctx := context.Background()
	sopt := ordinary.Options{Procs: hotpathProcs}

	type row struct {
		family string
		n      int
		cold   func() (any, error)
		// prepare compiles the plan and builds the arena; warm runs one
		// replay on the gang-carrying context. warmQuiet is the same replay
		// without boxing the result into any — the harness would otherwise
		// charge its own interface conversion to the allocation gate.
		prepare   func() error
		warm      func(ctx context.Context) (any, error)
		warmQuiet func(ctx context.Context) error
		equal     func(a, b any) bool
	}
	var rows []row

	{ // ordinary: int64 addition through the monomorphized IntAdd kernel
		s := workload.RandomOrdinary(rng, nOrd, nOrd)
		init := workload.InitInt64(rng, s.M, 1<<20)
		var arena *ordinary.Arena[int64]
		rows = append(rows, row{
			family: "ordinary", n: s.N,
			cold: func() (any, error) {
				r, err := ordinary.SolveCtx[int64](ctx, s, ir.IntAdd{}, init, sopt)
				if err != nil {
					return nil, err
				}
				return r.Values, nil
			},
			prepare: func() error {
				p, err := ordinary.CompilePlan(ctx, s)
				if err != nil {
					return err
				}
				arena = ordinary.NewArena[int64](p)
				return nil
			},
			warm: func(gctx context.Context) (any, error) {
				r, err := arena.SolveCtx(gctx, ir.IntAdd{}, init, sopt)
				if err != nil {
					return nil, err
				}
				return r.Values, nil
			},
			warmQuiet: func(gctx context.Context) error {
				_, err := arena.SolveCtx(gctx, ir.IntAdd{}, init, sopt)
				return err
			},
			equal: func(a, b any) bool { return int64SlicesEqual(a.([]int64), b.([]int64)) },
		})
	}

	floatCoeffs := func(n int) (a, b, c, d []float64) {
		a, b, c, d = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = 1 + rng.Float64()
			b[i] = rng.Float64()
			c[i] = rng.Float64() / 16
			d[i] = 1 + rng.Float64()
		}
		return
	}
	x0For := func(m int) []float64 {
		x0 := make([]float64, m)
		for x := range x0 {
			x0[x] = rng.Float64()
		}
		return x0
	}

	{ // linear: the affine form through the ChainOp Mat2 kernel
		s := workload.RandomOrdinary(rng, nOrd, nOrd)
		a, b, _, _ := floatCoeffs(s.N)
		x0 := x0For(s.M)
		var plan *moebius.Plan
		var arena *moebius.Arena
		rows = append(rows, row{
			family: "linear", n: s.N,
			cold: func() (any, error) {
				return ir.SolveLinearCtx(ctx, s.M, s.G, s.F, a, b, x0, ir.SolveOptions{Procs: hotpathProcs})
			},
			prepare: func() error {
				p, err := moebius.CompilePlan(ctx, s.M, s.G, s.F)
				if err != nil {
					return err
				}
				plan, arena = p, p.NewArena()
				// One untimed replay pages the arena in and warms branches.
				_, lerr := plan.SolveLinearArenaCtx(ctx, arena, a, b, x0, sopt)
				return lerr
			},
			warm: func(gctx context.Context) (any, error) {
				return plan.SolveLinearArenaCtx(gctx, arena, a, b, x0, sopt)
			},
			warmQuiet: func(gctx context.Context) error {
				_, err := plan.SolveLinearArenaCtx(gctx, arena, a, b, x0, sopt)
				return err
			},
			equal: func(a, b any) bool { return float64SlicesEqual(a.([]float64), b.([]float64)) },
		})
	}

	{ // moebius: the full fractional-linear form on the same shape class
		s := workload.RandomOrdinary(rng, nOrd, nOrd)
		a, b, c, d := floatCoeffs(s.N)
		x0 := x0For(s.M)
		var plan *moebius.Plan
		var arena *moebius.Arena
		rows = append(rows, row{
			family: "moebius", n: s.N,
			cold: func() (any, error) {
				return ir.SolveMoebiusCtx(ctx, s.M, s.G, s.F, a, b, c, d, x0, ir.SolveOptions{Procs: hotpathProcs})
			},
			prepare: func() error {
				p, err := moebius.CompilePlan(ctx, s.M, s.G, s.F)
				if err != nil {
					return err
				}
				plan, arena = p, p.NewArena()
				return nil
			},
			warm: func(gctx context.Context) (any, error) {
				return plan.SolveArenaCtx(gctx, arena, a, b, c, d, x0, sopt)
			},
			warmQuiet: func(gctx context.Context) error {
				_, err := plan.SolveArenaCtx(gctx, arena, a, b, c, d, x0, sopt)
				return err
			},
			equal: func(a, b any) bool { return float64SlicesEqual(a.([]float64), b.([]float64)) },
		})
	}

	var machine []string
	for _, r := range rows {
		var coldVal any
		coldMs, err := bestOf(coldReps, func() error {
			v, err := r.cold()
			coldVal = v
			return err
		})
		if err != nil {
			return fmt.Errorf("hotpath %s: cold solve: %w", r.family, err)
		}
		if err := r.prepare(); err != nil {
			return fmt.Errorf("hotpath %s: compile: %w", r.family, err)
		}

		// The gang outlives the timed loop, exactly as a server worker's
		// does; warm replays reuse it round after round. Settle the heap
		// first so the cold solves' garbage can't bill a GC pause to a
		// warm (allocation-free) replay.
		runtime.GC()
		gang := parallel.NewGang(hotpathProcs)
		gctx := parallel.WithGang(ctx, gang)

		var warmVal any
		warmMs, err := bestOf(warmReps, func() error {
			v, err := r.warm(gctx)
			warmVal = v
			return err
		})
		if err != nil {
			gang.Close()
			return fmt.Errorf("hotpath %s: warm replay: %w", r.family, err)
		}
		identical := r.equal(coldVal, warmVal)

		// AllocsPerRun pins GOMAXPROCS to 1 for the measurement; the gang
		// path is unchanged by that, so this measures the real replay.
		allocs := testing.AllocsPerRun(5, func() {
			if err := r.warmQuiet(gctx); err != nil {
				panic(err)
			}
		})
		gang.Close()

		if !identical {
			return fmt.Errorf("hotpath %s: warm replay diverged from the direct solve", r.family)
		}
		if allocs != 0 {
			return fmt.Errorf("hotpath %s: warm replay allocates (%.0f allocs/op), want 0", r.family, allocs)
		}
		if _, err := g.check(fmt.Sprintf("hotpath %s: warm replay", r.family), r.family, warmMs, 0, nil); err != nil {
			return err
		}

		tb.AddRow(r.family, r.n,
			fmt.Sprintf("%.3f", coldMs),
			fmt.Sprintf("%.3f", warmMs),
			fmt.Sprintf("%.2fx", coldMs/warmMs),
			fmt.Sprintf("%.0f", allocs),
			identical)
		machine = append(machine, fmt.Sprintf(
			"HOTPATH family=%s n=%d cold_ms=%.3f warm_ms=%.3f speedup=%.2f allocs=%.0f identical=%v",
			r.family, r.n, coldMs, warmMs, coldMs/warmMs, allocs, identical))
	}
	if err := g.done(); err != nil {
		return err
	}

	tb.Render(w)
	fmt.Fprintln(w)
	for _, line := range machine {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "\nWarm replays run through per-plan arenas on a persistent worker gang")
	fmt.Fprintln(w, "with monomorphized combine kernels: zero allocations per replay, and")
	fmt.Fprintln(w, "the identical column certifies bit-equal results against direct solves.")
	return nil
}
