package lang

import (
	"context"
	"errors"
	"fmt"

	"indexedrec/internal/core"
	"indexedrec/internal/gir"
	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
)

// ErrLower wraps lowering/execution failures.
var ErrLower = errors.New("lang: lowering error")

// Compiled is a classified loop bound to an executable parallel strategy.
type Compiled struct {
	Loop     *Loop
	Analysis *Analysis
}

// Compile parses nothing further — it packages the loop with its analysis.
func Compile(l *Loop) *Compiled {
	return &Compiled{Loop: l, Analysis: Analyze(l)}
}

// Strategy names the execution path Execute will take.
func (c *Compiled) Strategy() string {
	if c.Analysis.Nest {
		inner := Compile(c.Loop.InnerLoop())
		return "sequential outer loop × (" + inner.Strategy() + ")"
	}
	switch c.Analysis.Form {
	case FormMap:
		return "parallel map"
	case FormOrdinaryIR:
		return "OrdinaryIR pointer jumping"
	case FormGIR:
		return "GIR dependence graph + CAP"
	case FormLinearExtended:
		if c.Analysis.SelfOnly && isOne(c.Analysis.SelfCoef) {
			return "GIR scatter-add (dependence graph + CAP)"
		}
		return "Moebius matrices + OrdinaryIR"
	case FormLinear, FormMoebius:
		return "Moebius matrices + OrdinaryIR"
	default:
		return "sequential fallback"
	}
}

// iterRange evaluates the loop bounds, and checks the level's iterations
// against env.MaxIters.
func iterRange(l *Loop, env *Env) (lo, hi int, err error) {
	if lo, err = EvalIndex(l.Lo, env); err != nil {
		return
	}
	if hi, err = EvalIndex(l.Hi, env); err != nil || env.MaxIters <= 0 || hi < lo {
		return
	}
	// hi-lo, as unsigned, is exact for any hi >= lo; below the limit it and
	// outer are both at most MaxIters, so their product cannot overflow.
	limit := uint64(env.MaxIters)
	if span := uint64(hi) - uint64(lo); span >= limit || (span+1)*uint64(max(env.outer, 1)) > limit {
		err = fmt.Errorf("%w: for %s = %d to %d exceeds %d iterations", ErrRange, l.Var, lo, hi, env.MaxIters)
		if env.outer > 1 {
			err = fmt.Errorf("%w in %d outer iterations", err, env.outer)
		}
	}
	return
}

// enter counts the iterations of a level running lo..hi into env.outer
// while its body runs nested loops; the returned func restores the count.
func (env *Env) enter(lo, hi int) func() {
	outer := env.outer
	if env.MaxIters > 0 && hi >= lo {
		env.outer = max(outer, 1) * (hi - lo + 1)
	}
	return func() { env.outer = outer }
}

// tabulate evaluates expression e for every loop index, with the loop
// variable bound in env, returning integer index values.
func tabulate(l *Loop, env *Env, e Expr, lo, hi int) ([]int, error) {
	out := make([]int, 0, hi-lo+1)
	saved, had := env.Scalars[l.Var]
	defer restoreVar(env, l.Var, saved, had)
	for i := lo; i <= hi; i++ {
		env.Scalars[l.Var] = float64(i)
		v, err := EvalIndex(e, env)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// tabulateF is tabulate for float-valued coefficient expressions.
func tabulateF(l *Loop, env *Env, e Expr, lo, hi int) ([]float64, error) {
	out := make([]float64, 0, hi-lo+1)
	saved, had := env.Scalars[l.Var]
	defer restoreVar(env, l.Var, saved, had)
	for i := lo; i <= hi; i++ {
		env.Scalars[l.Var] = float64(i)
		v, err := Eval(e, env)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func restoreVar(env *Env, name string, saved float64, had bool) {
	if had {
		env.Scalars[name] = saved
	} else {
		delete(env.Scalars, name)
	}
}

// LowerIR tabulates an ordinary/general IR loop into a core.System over the
// target array.
func LowerIR(c *Compiled, env *Env) (*core.System, error) {
	an := c.Analysis
	if an.Form != FormOrdinaryIR && an.Form != FormGIR {
		return nil, fmt.Errorf("%w: LowerIR on %v form", ErrLower, an.Form)
	}
	arr, ok := env.Arrays[an.Array]
	if !ok {
		return nil, fmt.Errorf("%w: unbound array %q", ErrLower, an.Array)
	}
	lo, hi, err := iterRange(c.Loop, env)
	if err != nil {
		return nil, err
	}
	if hi < lo {
		return &core.System{M: len(arr), N: 0, G: []int{}, F: []int{}}, nil
	}
	g, err := tabulate(c.Loop, env, an.G, lo, hi)
	if err != nil {
		return nil, err
	}
	f, err := tabulate(c.Loop, env, an.F, lo, hi)
	if err != nil {
		return nil, err
	}
	sys := &core.System{M: len(arr), N: len(g), G: g, F: f}
	if an.Form == FormGIR {
		if sys.H, err = tabulate(c.Loop, env, an.H, lo, hi); err != nil {
			return nil, err
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLower, err)
	}
	return sys, nil
}

// LowerLinear tabulates a linear/extended/Möbius loop into a
// moebius.MoebiusSystem. Extended forms are rewritten per the paper:
// X[g] := c·X[g] + a·X[f] + b becomes a·X[f] + (c·S[g] + b) because the g
// are distinct, so the self-reference reads the initial value.
func LowerLinear(c *Compiled, env *Env) (*moebius.MoebiusSystem, error) {
	an := c.Analysis
	arr, ok := env.Arrays[an.Array]
	if !ok {
		return nil, fmt.Errorf("%w: unbound array %q", ErrLower, an.Array)
	}
	lo, hi, err := iterRange(c.Loop, env)
	if err != nil {
		return nil, err
	}
	if hi < lo {
		return moebius.NewLinear(len(arr), []int{}, []int{}, []float64{}, []float64{}), nil
	}
	g, err := tabulate(c.Loop, env, an.G, lo, hi)
	if err != nil {
		return nil, err
	}
	f, err := tabulate(c.Loop, env, an.F, lo, hi)
	if err != nil {
		return nil, err
	}
	a, err := tabulateF(c.Loop, env, an.A, lo, hi)
	if err != nil {
		return nil, err
	}
	b, err := tabulateF(c.Loop, env, an.B, lo, hi)
	if err != nil {
		return nil, err
	}
	switch an.Form {
	case FormLinear:
		return moebius.NewLinear(len(arr), g, f, a, b), nil
	case FormLinearExtended:
		sc, err := tabulateF(c.Loop, env, an.SelfCoef, lo, hi)
		if err != nil {
			return nil, err
		}
		b2 := make([]float64, len(b))
		for i := range b {
			if g[i] < 0 || g[i] >= len(arr) {
				return nil, fmt.Errorf("%w: g index %d out of range", ErrLower, g[i])
			}
			b2[i] = sc[i]*arr[g[i]] + b[i]
		}
		return moebius.NewLinear(len(arr), g, f, a, b2), nil
	case FormMoebius:
		cc, err := tabulateF(c.Loop, env, an.C, lo, hi)
		if err != nil {
			return nil, err
		}
		d, err := tabulateF(c.Loop, env, an.D, lo, hi)
		if err != nil {
			return nil, err
		}
		return &moebius.MoebiusSystem{M: len(arr), G: g, F: f, A: a, B: b, C: cc, D: d}, nil
	default:
		return nil, fmt.Errorf("%w: LowerLinear on %v form", ErrLower, an.Form)
	}
}

// Execute runs the loop against env using the parallel strategy selected by
// the analysis, mutating env.Arrays[target] exactly as sequential Run would
// (up to float rounding from regrouping). FormUnknown falls back to the
// sequential interpreter. procs <= 0 means GOMAXPROCS.
func (c *Compiled) Execute(env *Env, procs int) error {
	return c.ExecuteCtx(context.Background(), env, procs)
}

// ExecuteCtx is Execute through the hardened solver APIs: cancellation of
// ctx stops the solve between rounds (and between outer iterations of a
// nest) with ctx.Err(), and solver-side panics surface as errors. A Möbius
// chain whose composed map divides by zero falls back to the sequential
// interpreter, preserving Execute's IEEE semantics.
func (c *Compiled) ExecuteCtx(ctx context.Context, env *Env, procs int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	an := c.Analysis
	// Multi-statement bodies reach here only when the analysis proved the
	// statements independent (disjoint targets, no cross-references), so
	// each executes as its own single-statement loop with its own strategy.
	// A single pass through executeMap handles the all-map case directly.
	if asgs := c.Loop.Assigns(); len(asgs) > 1 && an.Form != FormMap && an.Form != FormUnknown {
		for _, st := range asgs {
			sub := &Loop{Var: c.Loop.Var, Lo: c.Loop.Lo, Hi: c.Loop.Hi, Body: []Stmt{st}}
			if err := Compile(sub).ExecuteCtx(ctx, env, procs); err != nil {
				return err
			}
		}
		return nil
	}
	if an.Nest {
		// Loop nest: drive the outer loop sequentially, parallelizing the
		// inner loop for each outer index (the paper's loop-23 shape,
		// where the j loop iterates the parallel i-loop over columns).
		inner := Compile(c.Loop.InnerLoop())
		lo, hi, err := iterRange(c.Loop, env)
		if err != nil {
			return err
		}
		defer env.enter(lo, hi)()
		saved, had := env.Scalars[c.Loop.Var]
		defer restoreVar(env, c.Loop.Var, saved, had)
		for i := lo; i <= hi; i++ {
			env.Scalars[c.Loop.Var] = float64(i)
			if err := inner.ExecuteCtx(ctx, env, procs); err != nil {
				return err
			}
		}
		return nil
	}
	switch an.Form {
	case FormMap:
		return c.executeMap(env)
	case FormOrdinaryIR:
		sys, err := LowerIR(c, env)
		if err != nil {
			return err
		}
		var op core.CommutativeMonoid[float64]
		if an.Op == '+' {
			op = core.Float64Add{}
		} else {
			op = core.Float64Mul{}
		}
		res, err := ordinary.SolveCtx[float64](ctx, sys, op, env.Arrays[an.Array], ordinary.Options{Procs: procs})
		if errors.Is(err, ordinary.ErrGNotDistinct) {
			// Repeated writes to one cell: outside §2's precondition, but
			// + and * are commutative, so the general solver applies
			// (H = G implicitly).
			_, values, gerr := gir.CompileSolveCtx[float64](ctx, sys, op, env.Arrays[an.Array], 0, procs)
			if gerr != nil {
				return gerr
			}
			copy(env.Arrays[an.Array], values)
			return nil
		}
		if err != nil {
			return err
		}
		copy(env.Arrays[an.Array], res.Values)
		return nil
	case FormGIR:
		sys, err := LowerIR(c, env)
		if err != nil {
			return err
		}
		var op core.CommutativeMonoid[float64]
		if an.Op == '+' {
			op = core.Float64Add{}
		} else {
			op = core.Float64Mul{}
		}
		_, values, err := gir.CompileSolveCtx[float64](ctx, sys, op, env.Arrays[an.Array], 0, procs)
		if err != nil {
			return err
		}
		copy(env.Arrays[an.Array], values)
		return nil
	case FormLinear, FormLinearExtended, FormMoebius:
		// Pure accumulations X[g] := X[g] + expr with repeated targets
		// (scatter-add: the PIC kernels) are general IR over + with an
		// auxiliary operand cell per iteration.
		if an.Form == FormLinearExtended && an.SelfOnly && isOne(an.SelfCoef) {
			return c.executeScatterAdd(ctx, env, procs)
		}
		ms, err := LowerLinear(c, env)
		if err != nil {
			return err
		}
		out, err := ms.SolveCtx(ctx, env.Arrays[an.Array], ordinary.Options{Procs: procs})
		if errors.Is(err, moebius.ErrBadSystem) || errors.Is(err, moebius.ErrNonFinite) {
			// Non-distinct g outside the scatter-add shape (no parallel
			// strategy in the framework), or a chain that divides by zero
			// (the guarded API rejects non-finite values, the sequential
			// loop defines them): run the loop as written.
			return Run(c.Loop, env)
		}
		if err != nil {
			return err
		}
		copy(env.Arrays[an.Array], out)
		return nil
	default:
		return Run(c.Loop, env)
	}
}

// executeMap evaluates every iteration's RHS against the loop-entry state,
// then commits the writes in iteration order (last write wins, matching the
// sequential loop for non-distinct g). The evaluations are independent, so
// a real machine would run them fully in parallel.
func (c *Compiled) executeMap(env *Env) error {
	lo, hi, err := iterRange(c.Loop, env)
	if err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	st := c.Loop.Assigns()
	if st == nil {
		return fmt.Errorf("%w: map execution on a body with nested loops", ErrLower)
	}
	type write struct {
		arr string
		idx int
		val float64
	}
	var writes []write
	saved, had := env.Scalars[c.Loop.Var]
	for i := lo; i <= hi; i++ {
		env.Scalars[c.Loop.Var] = float64(i)
		for _, s := range st {
			gi, err := EvalIndex(s.Target.Idx, env)
			if err != nil {
				restoreVar(env, c.Loop.Var, saved, had)
				return err
			}
			v, err := Eval(s.RHS, env)
			if err != nil {
				restoreVar(env, c.Loop.Var, saved, had)
				return err
			}
			writes = append(writes, write{s.Target.Array, gi, v})
		}
	}
	restoreVar(env, c.Loop.Var, saved, had)
	for _, w := range writes {
		arr := env.Arrays[w.arr]
		if w.idx < 0 || w.idx >= len(arr) {
			return fmt.Errorf("%w: %s[%d] out of range", ErrLower, w.arr, w.idx)
		}
		arr[w.idx] = w.val
	}
	return nil
}

// isOne reports whether e is the literal 1.
func isOne(e Expr) bool {
	n, ok := e.(*Num)
	return ok && n.Val == 1
}

// executeScatterAdd parallelizes X[g(i)] := X[g(i)] + b(i) — the
// scatter-accumulate of the particle-in-cell kernels, where g repeats — as
// a general IR system over +: the X cells are augmented with one auxiliary
// cell per iteration holding b(i), and iteration i computes
// X[g(i)] := X[aux_i] + X[g(i)], which package gir solves for non-distinct
// g via the versioned dependence graph.
func (c *Compiled) executeScatterAdd(ctx context.Context, env *Env, procs int) error {
	an := c.Analysis
	arr, ok := env.Arrays[an.Array]
	if !ok {
		return fmt.Errorf("%w: unbound array %q", ErrLower, an.Array)
	}
	lo, hi, err := iterRange(c.Loop, env)
	if err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	g, err := tabulate(c.Loop, env, an.G, lo, hi)
	if err != nil {
		return err
	}
	b, err := tabulateF(c.Loop, env, an.B, lo, hi)
	if err != nil {
		return err
	}
	m, n := len(arr), len(g)
	init := make([]float64, m+n)
	copy(init, arr)
	sys := &core.System{M: m + n, N: n, G: g, F: make([]int, n), H: make([]int, n)}
	for i := 0; i < n; i++ {
		if g[i] < 0 || g[i] >= m {
			return fmt.Errorf("%w: target index %d out of range", ErrLower, g[i])
		}
		init[m+i] = b[i]
		sys.F[i] = m + i
		sys.H[i] = g[i]
	}
	_, values, err := gir.CompileSolveCtx[float64](ctx, sys, core.Float64Add{}, init, 0, procs)
	if err != nil {
		return err
	}
	copy(arr, values[:m])
	return nil
}
