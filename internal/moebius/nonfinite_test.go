package moebius_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"indexedrec/internal/moebius"
	"indexedrec/internal/ordinary"
	"indexedrec/ir"
)

// TestNonFiniteErrorIsDeterministic puts non-finite values in two coefficient
// rows and checks that every entry point names the first one in A, B, C, D
// row order on every call, not whichever row a map iteration visits first.
func TestNonFiniteErrorIsDeterministic(t *testing.T) {
	const m, n = 6, 4
	g, f := []int{1, 2, 3, 4}, []int{0, 1, 2, 3}
	a, b, c, d := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], d[i] = 1, 1
	}
	a[1], c[0] = math.NaN(), math.Inf(1)
	x0 := make([]float64, m)

	ctx := context.Background()
	pub, err := ir.CompileMoebius(m, g, f)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := moebius.CompilePlan(ctx, m, g, f)
	if err != nil {
		t.Fatal(err)
	}
	arena := plan.NewArena()

	const want = "moebius: non-finite value: coefficient A[1] = NaN"
	for name, solve := range map[string]func() ([]float64, error){
		"ir.SolveMoebiusCtx": func() ([]float64, error) {
			return ir.SolveMoebiusCtx(ctx, m, g, f, a, b, c, d, x0, ir.SolveOptions{})
		},
		"ir.SolveMoebiusPlanCtx": func() ([]float64, error) {
			return ir.SolveMoebiusPlanCtx(ctx, pub, a, b, c, d, x0, ir.SolveOptions{})
		},
		"Plan.SolveArenaCtx": func() ([]float64, error) {
			return plan.SolveArenaCtx(ctx, arena, a, b, c, d, x0, ordinary.Options{})
		},
		"Plan.SolveRangeCtx": func() ([]float64, error) {
			return plan.SolveRangeCtx(ctx, a, b, c, d, x0, 0, m, ordinary.Options{})
		},
	} {
		for k := 0; k < 50; k++ {
			_, err := solve()
			if !errors.Is(err, moebius.ErrNonFinite) || err.Error() != want {
				t.Fatalf("%s call %d: err = %v, want %q", name, k, err, want)
			}
		}
	}
}
