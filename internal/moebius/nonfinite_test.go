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

// TestPlanEntryPointsShareErrors gives every plan entry point inputs with
// exactly one defect each and checks that all of them return the same
// error, byte for byte, whether the affine form arrives as nil c and d or
// as materialized 0/1 rows. The entry points share one load-and-guard step,
// so a difference here means a replay grew its own guard.
func TestPlanEntryPointsShareErrors(t *testing.T) {
	const m, n = 6, 4
	g, f := []int{1, 2, 3, 4}, []int{0, 1, 2, 3}
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
	opt := ordinary.Options{}

	type input struct{ a, b, c, d, x0 []float64 }
	ones := func(k int) []float64 {
		r := make([]float64, k)
		for i := range r {
			r[i] = 1
		}
		return r
	}
	base := func(nilRows bool) *input {
		in := &input{a: ones(n), b: ones(n), x0: ones(m)}
		if !nilRows {
			in.c, in.d = make([]float64, n), ones(n)
		}
		return in
	}
	for _, tc := range []struct {
		name   string
		defect func(in *input)
		want   string
	}{
		{"short b", func(in *input) { in.b = in.b[:n-1] },
			"moebius: invalid system: coefficient lengths disagree with n = 4"},
		{"one nil row of c/d", func(in *input) {
			if in.c == nil {
				in.d = ones(n) // nil c beside a d row
			} else {
				in.d = nil // a c row beside nil d
			}
		}, "moebius: invalid system: coefficient lengths disagree with n = 4"},
		{"non-finite coefficient", func(in *input) { in.b[3] = math.NaN() },
			"moebius: non-finite value: coefficient B[3] = NaN"},
		{"x0 length", func(in *input) { in.x0 = in.x0[:m-1] },
			"moebius: initial array length does not match M: len(x0) = 5, want M = 6"},
		{"non-finite x0", func(in *input) { in.x0[2] = math.Inf(1) },
			"moebius: non-finite value: x0[2] = +Inf"},
		{"non-finite output", func(in *input) { in.a[1], in.x0[0] = 1e200, 1e200 },
			"moebius: non-finite value: cell 2 = +Inf (division by zero along its chain)"},
		{"division by zero", func(in *input) {
			in.c, in.d = make([]float64, n), ones(n)
			in.a[2], in.b[2], in.d[2] = 0, 1, 0
		}, "moebius: non-finite value: cell 3 = +Inf (division by zero along its chain)"},
	} {
		for _, nilRows := range []bool{true, false} {
			in := base(nilRows)
			tc.defect(in)
			data := ir.PlanData{A: in.a, B: in.b, C: in.c, D: in.d, X0: in.x0}
			for name, solve := range map[string]func() error{
				"Plan.SolveCtx": func() error {
					_, err := plan.SolveCtx(ctx, in.a, in.b, in.c, in.d, in.x0, opt)
					return err
				},
				"Plan.SolveArenaCtx": func() error {
					_, err := plan.SolveArenaCtx(ctx, arena, in.a, in.b, in.c, in.d, in.x0, opt)
					return err
				},
				"Plan.SolveRangeCtx": func() error {
					_, err := plan.SolveRangeCtx(ctx, in.a, in.b, in.c, in.d, in.x0, 0, m, opt)
					return err
				},
				"ir.Plan.SolveCtx": func() error {
					_, err := pub.SolveCtx(ctx, data)
					return err
				},
				"ir.Plan.SolveShardCtx": func() error {
					_, err := pub.SolveShardCtx(ctx, data, ir.Shard{Lo: 0, Hi: m})
					return err
				},
			} {
				if err := solve(); err == nil || err.Error() != tc.want {
					t.Errorf("%s, nil c/d %v, %s: err = %v, want %q", tc.name, nilRows, name, err, tc.want)
				}
			}
		}
	}

	// A range past the plan is a defect only the range entry points can
	// have. Each rejects it in its own layer's words (the ir layer checks
	// shards against Plan.ShardUnits for every family before any
	// family-specific replay), identically for both spellings of the
	// affine form.
	for _, nilRows := range []bool{true, false} {
		in := base(nilRows)
		_, err := plan.SolveRangeCtx(ctx, in.a, in.b, in.c, in.d, in.x0, 2, m+1, opt)
		if want := "moebius: shard range out of bounds: cells [2, 7) of 6"; err == nil || err.Error() != want {
			t.Errorf("bad range, nil c/d %v, Plan.SolveRangeCtx: err = %v, want %q", nilRows, err, want)
		}
		data := ir.PlanData{A: in.a, B: in.b, C: in.c, D: in.d, X0: in.x0}
		_, err = pub.SolveShardCtx(ctx, data, ir.Shard{Lo: 2, Hi: m + 1})
		if want := "ir: bad shard: [2, 7) of 6 units"; err == nil || err.Error() != want {
			t.Errorf("bad range, nil c/d %v, ir.Plan.SolveShardCtx: err = %v, want %q", nilRows, err, want)
		}
	}
}
