package scan

import (
	"context"

	"indexedrec/internal/core"
	"indexedrec/internal/ordinary"
)

// Inclusive computes the inclusive prefix combine of xs under op
// sequentially: out[i] = xs[0] ⊗ ... ⊗ xs[i].
func Inclusive[T any](op core.Semigroup[T], xs []T) []T {
	out := make([]T, len(xs))
	if len(xs) == 0 {
		return out
	}
	out[0] = xs[0]
	for i := 1; i < len(xs); i++ {
		out[i] = op.Combine(out[i-1], xs[i])
	}
	return out
}

// chainPrefix is the package's one parallel path: the inclusive prefix of xs
// as the paper's ordinary IR over the chain g(i) = i+1, f(i) = i on
// m = len(xs) cells, compiled by ordinary.ChainPlan (CompilePlan's plan for
// that chain, with no g or f tables) and replayed by
// ordinary.SolvePlanPooledCtx. The plan's auto schedule picks the blocked
// scan or pointer jumping exactly as it does for every other chain. A panic
// in op returns as a *parallel.PanicError (an Abort as its error), with
// every worker joined.
func chainPrefix[T any](op core.Semigroup[T], xs []T, procs int) ([]T, error) {
	n := len(xs)
	if n <= 1 {
		out := make([]T, n)
		copy(out, xs)
		return out, nil
	}
	ctx := context.TODO() // the exported signatures take no context
	p, err := ordinary.ChainPlan(ctx, n)
	if err != nil {
		return nil, err
	}
	res, err := ordinary.SolvePlanPooledCtx(ctx, p, op, xs, ordinary.Options{Procs: procs})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// InclusiveParallel computes Inclusive on the ordinary engine (chainPrefix).
// It has no error return, so a panic in op is re-raised in the caller's
// goroutine as a *parallel.PanicError.
func InclusiveParallel[T any](op core.Semigroup[T], xs []T, procs int) []T {
	out, err := chainPrefix(op, xs, procs)
	if err != nil {
		panic(err)
	}
	return out
}

// affine is the composition semigroup of maps x ↦ a·x + b; combining left
// then right yields the map "apply left first": (a2·a1, a2·b1 + b2).
type affine struct{ a, b float64 }

type affineOp struct{}

func (affineOp) Name() string { return "affine-compose" }
func (affineOp) Combine(l, r affine) affine {
	return affine{a: r.a * l.a, b: r.a*l.b + r.b}
}

// LinearRecurrence solves x[i] = a[i]·x[i-1] + b[i] for i = 1..n-1 with
// x[0] given, sequentially. a[0], b[0] are ignored.
func LinearRecurrence(a, b []float64, x0 float64) []float64 {
	out := make([]float64, len(a))
	if len(a) == 0 {
		return out
	}
	out[0] = x0
	for i := 1; i < len(a); i++ {
		out[i] = a[i]*out[i-1] + b[i]
	}
	return out
}

// LinearRecurrenceParallel solves the same recurrence via parallel prefix
// over affine-map composition (the formulation the paper cites as prior
// art): x[i] = (∘_{k≤i} φ_k)(x0), each φ_k = a_k·x + b_k, with the prefix
// taken by chainPrefix. A panic inside the prefix is re-raised in the
// caller's goroutine, as in InclusiveParallel.
func LinearRecurrenceParallel(a, b []float64, x0 float64, procs int) []float64 {
	n := len(a)
	if n == 0 {
		return make([]float64, 0)
	}
	maps := make([]affine, n)
	maps[0] = affine{a: 1, b: 0} // identity; x[0] is given
	for i := 1; i < n; i++ {
		maps[i] = affine{a: a[i], b: b[i]}
	}
	pref := InclusiveParallel[affine](affineOp{}, maps, procs)
	out := make([]float64, n)
	for i, m := range pref {
		out[i] = m.a*x0 + m.b
	}
	return out
}
