package lang

import (
	"context"
	"errors"
	"fmt"

	"indexedrec/internal/core"
)

// ErrLower wraps lowering/execution failures.
var ErrLower = errors.New("lang: lowering error")

// Compiled is a classified loop bound to its parallel strategy; Drive runs
// it with a caller-supplied solve step.
type Compiled struct {
	Loop     *Loop
	Analysis *Analysis
}

// Compile parses nothing further — it packages the loop with its analysis.
func Compile(l *Loop) *Compiled {
	return &Compiled{Loop: l, Analysis: Analyze(l)}
}

// Strategy names the execution path Drive will take.
func (c *Compiled) Strategy() string {
	if c.Analysis.Nest {
		return "sequential outer loop × (" + Compile(c.Loop.InnerLoop()).Strategy() + ")"
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

// tabulate evaluates expression e with eval (EvalIndex for index maps,
// Eval for coefficients) for every loop index, with the loop variable bound
// in env.
func tabulate[T any](l *Loop, env *Env, e Expr, lo, hi int, eval func(Expr, *Env) (T, error)) ([]T, error) {
	out := make([]T, 0, hi-lo+1)
	saved, had := env.Scalars[l.Var]
	defer restoreVar(env, l.Var, saved, had)
	for i := lo; i <= hi; i++ {
		env.Scalars[l.Var] = float64(i)
		v, err := eval(e, env)
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

// Leaf is one parallel leaf of a loop, lowered for a solver: a tabulated
// system over float cells and the data to solve it against. Its index maps
// read scalars, loop bounds and index arrays, never the target array.
// Exactly one shape applies:
//
//   - IR (A nil): Sys combined by Op ('+' or '*') over Init. H nil is the
//     ordinary form X[g] := X[f] op X[g], whose family the solver picks by
//     structure; H set is the general form. A scatter-add lowers to the
//     general form over Init widened by one operand cell per iteration.
//   - Möbius (A set): Sys's M, N, G and F with coefficients A, B and, for
//     the fractional form, C, D (nil for the affine forms, whose extended
//     b is already rewritten), over Init.
type Leaf struct {
	Sys        *core.System
	Op         byte
	Init       []float64
	A, B, C, D []float64
}

// Solver solves one leaf and returns its final cells; the first
// len(target) of them are copied back into the target array. An error
// wrapping ErrSequential makes Drive run the leaf's loop as written.
type Solver func(ctx context.Context, leaf *Leaf) ([]float64, error)

// ErrSequential marks a leaf with no parallel solve: a Möbius g that
// repeats or leaves the array, or a chain the solver refuses (one that
// divides by zero). Drive runs such a loop through Run, keeping its
// IEEE semantics.
var ErrSequential = errors.New("lang: no parallel solve for this leaf")

// lower tabulates a single-statement IR, scatter-add or linear-form loop
// into its leaf; a nil leaf with a nil error is an empty range.
func (c *Compiled) lower(env *Env) (*Leaf, error) {
	an := c.Analysis
	arr, ok := env.Arrays[an.Array]
	if !ok {
		return nil, fmt.Errorf("%w: unbound array %q", ErrLower, an.Array)
	}
	lo, hi, err := iterRange(c.Loop, env)
	if err != nil || hi < lo {
		return nil, err
	}
	ints := func(e Expr) (v []int) {
		if err == nil {
			v, err = tabulate(c.Loop, env, e, lo, hi, EvalIndex)
		}
		return v
	}
	floats := func(e Expr) (v []float64) {
		if err == nil {
			v, err = tabulate(c.Loop, env, e, lo, hi, Eval)
		}
		return v
	}
	m, n := len(arr), hi-lo+1
	sys := &core.System{M: m, N: n, G: ints(an.G)}
	switch {
	case an.Form == FormOrdinaryIR, an.Form == FormGIR:
		sys.F = ints(an.F)
		if an.Form == FormGIR {
			sys.H = ints(an.H)
		}
		if err != nil {
			return nil, err
		}
		if err := sys.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLower, err)
		}
		return &Leaf{Sys: sys, Op: an.Op, Init: arr}, nil
	case an.Form == FormLinearExtended && an.SelfOnly && isOne(an.SelfCoef):
		// X[g(i)] := X[g(i)] + b(i), the particle-in-cell kernels'
		// scatter-accumulate where g repeats: general IR over + with
		// one auxiliary cell per iteration holding b(i), iteration i
		// computing X[g(i)] := X[aux_i] + X[g(i)].
		b := floats(an.B)
		if err != nil {
			return nil, err
		}
		init := append(append(make([]float64, 0, m+n), arr...), b...)
		sys.M, sys.F, sys.H = m+n, make([]int, n), sys.G
		for i, x := range sys.G {
			if x < 0 || x >= m {
				return nil, fmt.Errorf("%w: target index %d out of range", ErrLower, x)
			}
			sys.F[i] = m + i
		}
		return &Leaf{Sys: sys, Op: '+', Init: init}, nil
	}
	sys.F = ints(an.F)
	leaf := &Leaf{Sys: sys, Init: arr, A: floats(an.A), B: floats(an.B)}
	switch an.Form {
	case FormLinearExtended:
		// X[g] := c·X[g] + a·X[f] + b becomes a·X[f] + (c·S[g] + b), per
		// the paper: the g are distinct, so the self-reference reads the
		// initial value.
		sc := floats(an.SelfCoef)
		if err != nil {
			return nil, err
		}
		b := make([]float64, n)
		for i, x := range sys.G {
			if x < 0 || x >= m {
				return nil, fmt.Errorf("%w: g index %d out of range", ErrLower, x)
			}
			b[i] = sc[i]*arr[x] + leaf.B[i]
		}
		leaf.B = b
	case FormMoebius:
		leaf.C, leaf.D = floats(an.C), floats(an.D)
	}
	if err != nil {
		return nil, err
	}
	if sys.Validate() != nil || !sys.GDistinct() {
		return nil, ErrSequential
	}
	return leaf, nil
}

// Drive runs the loop against env, mutating its arrays exactly as Run
// would (up to float rounding from regrouping). It drives nests (the outer
// loop sequential, the inner one parallel per outer index: the paper's
// loop-23 shape) and independent multi-statement bodies, evaluates maps
// itself, and hands every other leaf, lowered, to solve. FormUnknown and a
// leaf without a parallel solve (ErrSequential) run through Run.
// Cancelling ctx stops the run between leaves with ctx.Err().
func (c *Compiled) Drive(ctx context.Context, env *Env, solve Solver) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	an := c.Analysis
	// Multi-statement bodies reach here only when the analysis proved the
	// statements independent (disjoint targets, no cross-references), so
	// each runs as its own single-statement loop with its own strategy.
	// A single pass through executeMap handles the all-map case directly.
	if asgs := c.Loop.Assigns(); len(asgs) > 1 && an.Form != FormMap && an.Form != FormUnknown {
		for _, st := range asgs {
			sub := &Loop{Var: c.Loop.Var, Lo: c.Loop.Lo, Hi: c.Loop.Hi, Body: []Stmt{st}}
			if err := Compile(sub).Drive(ctx, env, solve); err != nil {
				return err
			}
		}
		return nil
	}
	if an.Nest {
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
			if err := inner.Drive(ctx, env, solve); err != nil {
				return err
			}
		}
		return nil
	}
	switch an.Form {
	case FormMap:
		return c.executeMap(env)
	case FormUnknown:
		return Run(c.Loop, env)
	}
	leaf, err := c.lower(env)
	var values []float64
	if leaf != nil {
		values, err = solve(ctx, leaf)
	}
	if errors.Is(err, ErrSequential) {
		return Run(c.Loop, env)
	}
	if err == nil {
		copy(env.Arrays[an.Array], values)
	}
	return err
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
	defer restoreVar(env, c.Loop.Var, saved, had)
	for i := lo; i <= hi; i++ {
		env.Scalars[c.Loop.Var] = float64(i)
		for _, s := range st {
			gi, err := EvalIndex(s.Target.Idx, env)
			if err != nil {
				return err
			}
			v, err := Eval(s.RHS, env)
			if err != nil {
				return err
			}
			writes = append(writes, write{s.Target.Array, gi, v})
		}
	}
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
