package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"indexedrec/internal/report"
	"indexedrec/internal/workload"
	"indexedrec/ir"
)

func init() {
	register("cold_vs_warm", "E17 — compiled plans: cold solve vs compile-once + warm replay, per family",
		"splits compile cost from replay cost for every plan family", runColdVsWarm)
}

// runColdVsWarm measures the compile-once/solve-many split: for each solver
// family it times the direct (cold) solve, one ir.Compile, and the warm
// Plan replay, verifying along the way that the replayed values are
// bit-identical to the direct solve's. The warm column is what a repeat
// customer of irserved's plan cache pays per request.
func runColdVsWarm(w io.Writer, opt Options) error {
	rng := rand.New(rand.NewSource(opt.seed()))
	coldReps, warmReps := 3, 10
	if opt.Quick {
		coldReps, warmReps = 2, 4
	}
	nOrd := opt.n(1 << 17)
	nGen := opt.n(1 << 14)

	tb := report.NewTable(
		fmt.Sprintf("cold solve vs warm plan replay (cold x%d, warm x%d, best-of averages)", coldReps, warmReps),
		"family", "n", "m", "cold ms", "compile ms", "warm ms", "warm speedup", "identical")

	type row struct {
		family  string
		n, m    int
		cold    func() (any, error)
		compile func() (*ir.Plan, error)
		warm    func(p *ir.Plan) (any, error)
		equal   func(a, b any) bool
	}

	intInit := func(m int) []int64 { return workload.InitInt64(rng, m, 1<<20) }
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

	ctx := context.Background()
	var rows []row

	{ // ordinary: random permutation-target system, int64 addition
		s := workload.RandomOrdinary(rng, nOrd, nOrd)
		init := intInit(s.M)
		rows = append(rows, row{
			family: "ordinary", n: s.N, m: s.M,
			cold: func() (any, error) {
				r, err := ir.SolveOrdinaryCtx[int64](ctx, s, ir.IntAdd{}, init, ir.SolveOptions{})
				if err != nil {
					return nil, err
				}
				return r.Values, nil
			},
			compile: func() (*ir.Plan, error) { return ir.Compile(s, ir.CompileOptions{}) },
			warm: func(p *ir.Plan) (any, error) {
				r, err := ir.SolveOrdinaryPlanCtx[int64](ctx, p, ir.IntAdd{}, init, ir.SolveOptions{})
				if err != nil {
					return nil, err
				}
				return r.Values, nil
			},
			equal: func(a, b any) bool { return int64SlicesEqual(a.([]int64), b.([]int64)) },
		})
	}

	{ // general: scatter accumulation (g non-distinct), modular product
		s := workload.Scatter(rng, nGen, nGen/8)
		init := intInit(s.M)
		op := ir.MulMod{M: 1_000_003}
		rows = append(rows, row{
			family: "general", n: s.N, m: s.M,
			cold: func() (any, error) {
				r, err := ir.SolveGeneralCtx[int64](ctx, s, op, init, ir.SolveOptions{})
				if err != nil {
					return nil, err
				}
				return r.Values, nil
			},
			compile: func() (*ir.Plan, error) { return ir.Compile(s, ir.CompileOptions{}) },
			warm: func(p *ir.Plan) (any, error) {
				r, err := ir.SolveGeneralPlanCtx[int64](ctx, p, op, init, ir.SolveOptions{})
				if err != nil {
					return nil, err
				}
				return r.Values, nil
			},
			equal: func(a, b any) bool { return int64SlicesEqual(a.([]int64), b.([]int64)) },
		})
	}

	{ // linear: X[g] := a·X[f] + b over a random distinct-g system
		s := workload.RandomOrdinary(rng, nOrd, nOrd)
		a, b, _, _ := floatCoeffs(s.N)
		x0 := x0For(s.M)
		rows = append(rows, row{
			family: "linear", n: s.N, m: s.M,
			cold: func() (any, error) {
				return ir.SolveLinearCtx(ctx, s.M, s.G, s.F, a, b, x0, ir.SolveOptions{})
			},
			compile: func() (*ir.Plan, error) { return ir.CompileMoebius(s.M, s.G, s.F) },
			warm: func(p *ir.Plan) (any, error) {
				sol, err := p.SolveCtx(ctx, ir.PlanData{A: a, B: b, X0: x0})
				if err != nil {
					return nil, err
				}
				return sol.Values, nil
			},
			equal: func(a, b any) bool { return float64SlicesEqual(a.([]float64), b.([]float64)) },
		})
	}

	{ // moebius: the full fractional-linear form on the same shape class
		s := workload.RandomOrdinary(rng, nOrd, nOrd)
		a, b, c, d := floatCoeffs(s.N)
		x0 := x0For(s.M)
		rows = append(rows, row{
			family: "moebius", n: s.N, m: s.M,
			cold: func() (any, error) {
				return ir.SolveMoebiusCtx(ctx, s.M, s.G, s.F, a, b, c, d, x0, ir.SolveOptions{})
			},
			compile: func() (*ir.Plan, error) { return ir.CompileMoebius(s.M, s.G, s.F) },
			warm: func(p *ir.Plan) (any, error) {
				return ir.SolveMoebiusPlanCtx(ctx, p, a, b, c, d, x0, ir.SolveOptions{})
			},
			equal: func(a, b any) bool { return float64SlicesEqual(a.([]float64), b.([]float64)) },
		})
	}

	for _, r := range rows {
		var coldVal any
		coldMs, err := bestOf(coldReps, func() error {
			v, err := r.cold()
			coldVal = v
			return err
		})
		if err != nil {
			return fmt.Errorf("cold_vs_warm %s: cold solve: %w", r.family, err)
		}

		var plan *ir.Plan
		compileMs, err := bestOf(1, func() error {
			p, err := r.compile()
			plan = p
			return err
		})
		if err != nil {
			return fmt.Errorf("cold_vs_warm %s: compile: %w", r.family, err)
		}

		var warmVal any
		warmMs, err := bestOf(warmReps, func() error {
			v, err := r.warm(plan)
			warmVal = v
			return err
		})
		if err != nil {
			return fmt.Errorf("cold_vs_warm %s: warm replay: %w", r.family, err)
		}

		identical := r.equal(coldVal, warmVal)
		if !identical {
			return fmt.Errorf("cold_vs_warm %s: warm replay diverged from the direct solve", r.family)
		}
		tb.AddRow(r.family, r.n, r.m,
			fmt.Sprintf("%.3f", coldMs),
			fmt.Sprintf("%.3f", compileMs),
			fmt.Sprintf("%.3f", warmMs),
			fmt.Sprintf("%.2fx", coldMs/warmMs),
			identical)
	}
	tb.Render(w)
	fmt.Fprintln(w, "\nWarm replays skip structure work entirely: chain decomposition and the")
	fmt.Fprintln(w, "combine schedule (ordinary, linear, moebius) or the final cells'")
	fmt.Fprintln(w, "CAP path counts (general) are baked into the plan, so only the data")
	fmt.Fprintln(w, "phase runs. The identical column certifies bit-equal results.")
	return nil
}

// bestOf runs fn reps times and returns the fastest wall-clock run in
// milliseconds (best-of defeats scheduler noise better than averaging for
// short runs).
func bestOf(reps int, fn func() error) (float64, error) {
	best := -1.0
	for k := 0; k < reps; k++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if elapsed := float64(time.Since(start).Microseconds()) / 1000; best < 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func float64SlicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // bitwise-identical finite values compare equal
			return false
		}
	}
	return true
}
