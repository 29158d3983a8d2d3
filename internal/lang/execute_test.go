package lang_test

import (
	"math"
	"testing"

	"indexedrec/internal/lang"
	"indexedrec/ir"
)

// The parallel execution tests: a loop driven through ir.CompileLoop —
// lowered by package lang, compiled and replayed by package ir — must
// match the sequential interpreter lang.Run.

func mustParse(t *testing.T, src string) *lang.Loop {
	t.Helper()
	l, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return l
}

func execBoth(t *testing.T, src string, env *lang.Env) (seq, par *lang.Env) {
	t.Helper()
	l := mustParse(t, src)
	seq = env.Clone()
	if err := lang.Run(l, seq); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par = env.Clone()
	c := ir.CompileLoop(l)
	if err := c.Execute(par, 4); err != nil {
		t.Fatalf("parallel (%v): %v", c.Analysis.Form, err)
	}
	return seq, par
}

func requireSameArrays(t *testing.T, seq, par *lang.Env, tol float64) {
	t.Helper()
	for name, want := range seq.Arrays {
		got := par.Arrays[name]
		for i := range want {
			d := math.Abs(got[i] - want[i])
			if d > tol*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("array %s[%d]: parallel %v, sequential %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestExecuteOrdinaryIR(t *testing.T) {
	env := lang.NewEnv()
	env.Scalars["n"] = 30
	env.Arrays["X"] = ramp(32)
	env.Arrays["G"] = ramp(32)
	env.Arrays["F"] = reverseRamp(32)
	seq, par := execBoth(t, "for i = 1 to n do X[G[i]] := X[F[i]] + X[G[i]]", env)
	requireSameArrays(t, seq, par, 1e-12)
}

func TestExecuteGIR(t *testing.T) {
	env := lang.NewEnv()
	env.Scalars["n"] = 10
	env.Arrays["X"] = []float64{1.01, 1.02, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	seq, par := execBoth(t, "for i = 2 to n do X[i] := X[i-1] * X[i-2]", env)
	requireSameArrays(t, seq, par, 1e-9)
}

func TestExecuteLinear(t *testing.T) {
	env := lang.NewEnv()
	env.Scalars["n"] = 20
	env.Arrays["X"] = ramp(24)
	env.Arrays["A"] = halfRamp(24)
	env.Arrays["B"] = ramp(24)
	seq, par := execBoth(t, "for i = 1 to n do X[i] := A[i]*X[i-1] + B[i]", env)
	requireSameArrays(t, seq, par, 1e-9)
}

func TestExecuteExtendedIndirect(t *testing.T) {
	env := lang.NewEnv()
	env.Scalars["n"] = 15
	env.Arrays["X"] = ramp(40)
	env.Arrays["A"] = halfRamp(16)
	env.Arrays["B"] = halfRamp(16)
	// G: distinct targets 2i; F: i (mix of earlier/later writes).
	g := make([]float64, 16)
	f := make([]float64, 16)
	for i := range g {
		g[i] = float64(2 * i)
		f[i] = float64(i)
	}
	env.Arrays["G"] = g
	env.Arrays["F"] = f
	seq, par := execBoth(t, "for i = 1 to n do X[G[i]] := X[G[i]] + A[i]*X[F[i]] + B[i]", env)
	requireSameArrays(t, seq, par, 1e-9)
}

func TestExecuteMap(t *testing.T) {
	env := lang.NewEnv()
	env.Scalars["n"] = 9
	env.Arrays["X"] = make([]float64, 10)
	env.Arrays["Y"] = ramp(10)
	seq, par := execBoth(t, "for i = 0 to n do X[i] := Y[i]*Y[i] + 1", env)
	requireSameArrays(t, seq, par, 0)
}

func TestExecuteUnknownFallsBack(t *testing.T) {
	env := lang.NewEnv()
	env.Scalars["n"] = 5
	env.Arrays["X"] = ramp(8)
	// Quadratic: classifier says unknown; Execute must still be correct
	// via the sequential fallback.
	seq, par := execBoth(t, "for i = 1 to n do X[i] := X[i-1]*X[i-1] + X[i]", env)
	requireSameArrays(t, seq, par, 0)
}

func TestExecuteMoebius(t *testing.T) {
	env := lang.NewEnv()
	env.Scalars["n"] = 12
	env.Arrays["X"] = onesF(16)
	env.Arrays["A"] = halfRamp(16)
	env.Arrays["B"] = onesF(16)
	env.Arrays["C"] = halfRamp(16)
	env.Arrays["D"] = onesF(16)
	seq, par := execBoth(t,
		"for i = 1 to n do X[i] := (A[i]*X[i-1]+B[i]) / (C[i]*X[i-1]+D[i])", env)
	requireSameArrays(t, seq, par, 1e-9)
}

func TestExecuteMultiStatementMixedForms(t *testing.T) {
	// Regression: a multi-statement body whose members have different
	// forms (a recurrence on X, a map on Y) must execute EVERY statement
	// (fission is valid because the analysis proved independence).
	src := `
for i = 1 to n do
begin
    X[i] := X[i-1] + X[i];
    Y[i] := B[i] * 2;
end`
	env := lang.NewEnv()
	env.Scalars["n"] = 20
	env.Arrays["X"] = ramp(21)
	env.Arrays["Y"] = make([]float64, 21)
	env.Arrays["B"] = ramp(21)
	seq, par := execBoth(t, src, env)
	requireSameArrays(t, seq, par, 1e-12)
	if par.Arrays["Y"][5] == 0 {
		t.Fatal("second statement was not executed")
	}
}

func TestExecuteMultiStatementTwoRecurrences(t *testing.T) {
	src := `
for i = 1 to n do
begin
    X[i] := A[i]*X[i-1] + 1;
    Z[i] := Z[i-1] + A[i];
end`
	env := lang.NewEnv()
	env.Scalars["n"] = 30
	env.Arrays["X"] = ramp(31)
	env.Arrays["Z"] = make([]float64, 31)
	env.Arrays["A"] = halfRamp(31)
	seq, par := execBoth(t, src, env)
	requireSameArrays(t, seq, par, 1e-9)
}

func nestEnv(n int) *lang.Env {
	e := lang.NewEnv()
	e.Scalars["n"] = float64(n)
	rows := n + 1
	x := make([]float64, 7*rows+8)
	z := make([]float64, 7*rows+8)
	y := make([]float64, n+1)
	for i := range x {
		x[i] = 0.3 + float64(i%11)/23
		z[i] = 0.2 + float64(i%7)/19
	}
	for i := range y {
		y[i] = float64(i%5) / 7
	}
	e.Arrays["X"], e.Arrays["Y"], e.Arrays["Z"] = x, y, z
	return e
}

func TestExecuteNestMatchesSequential(t *testing.T) {
	l := mustParse(t, lang.Loop23Nest)
	const n = 64
	seq := nestEnv(n)
	if err := lang.Run(l, seq); err != nil {
		t.Fatal(err)
	}
	par := nestEnv(n)
	if err := ir.CompileLoop(l).Execute(par, 4); err != nil {
		t.Fatal(err)
	}
	for i, want := range seq.Arrays["X"] {
		got := par.Arrays["X"][i]
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("X[%d]: parallel %v, sequential %v", i, got, want)
		}
	}
}

func TestAnalyzeMixedBodyUnknown(t *testing.T) {
	src := `
for j = 1 to 2 do
begin
    A[j] := 1;
    for i = 1 to 3 do B[i] := A[j];
end`
	an := lang.Analyze(mustParse(t, src))
	if an.Form != lang.FormUnknown {
		t.Fatalf("mixed body: form = %v, want unknown", an.Form)
	}
	// The fallback path must still execute it correctly.
	l := mustParse(t, src)
	env := lang.NewEnv()
	env.Arrays["A"] = make([]float64, 3)
	env.Arrays["B"] = make([]float64, 4)
	seq := env.Clone()
	if err := lang.Run(l, seq); err != nil {
		t.Fatal(err)
	}
	par := env.Clone()
	if err := ir.CompileLoop(l).Execute(par, 2); err != nil {
		t.Fatal(err)
	}
	for i := range seq.Arrays["B"] {
		if seq.Arrays["B"][i] != par.Arrays["B"][i] {
			t.Fatalf("B mismatch: %v vs %v", par.Arrays["B"], seq.Arrays["B"])
		}
	}
}

func TestDeepNestExecute(t *testing.T) {
	// A nest of nests whose innermost loop is an ordinary IR: the Execute
	// path must recurse through both outer levels.
	src := `
for a = 0 to 1 do
  for b = 0 to 1 do
    for i = 1 to 7 do
      X[8*(2*a+b) + i] := X[8*(2*a+b) + i - 1] + X[8*(2*a+b) + i]
`
	l := mustParse(t, src)
	env := lang.NewEnv()
	x := make([]float64, 32)
	for i := range x {
		x[i] = float64(i + 1)
	}
	env.Arrays["X"] = x
	seq := env.Clone()
	if err := lang.Run(l, seq); err != nil {
		t.Fatal(err)
	}
	par := env.Clone()
	if err := ir.CompileLoop(l).Execute(par, 2); err != nil {
		t.Fatal(err)
	}
	for i := range seq.Arrays["X"] {
		if math.Abs(seq.Arrays["X"][i]-par.Arrays["X"][i]) > 1e-12 {
			t.Fatalf("X[%d]: %v vs %v", i, par.Arrays["X"][i], seq.Arrays["X"][i])
		}
	}
}

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func reverseRamp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - 1 - i)
	}
	return v
}

func halfRamp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.5 + float64(i%7)/14
	}
	return v
}

func onesF(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
