package lang

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Loop {
	t.Helper()
	l, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return l
}

func TestParseSingleStatement(t *testing.T) {
	l := mustParse(t, "for i = 1 to n do X[i] := X[i-1] + X[i]")
	if l.Var != "i" || len(l.Body) != 1 {
		t.Fatalf("loop: %v", l)
	}
	if l.TargetArray() != "X" {
		t.Fatalf("target: %v", l.TargetArray())
	}
}

func TestParseBeginEnd(t *testing.T) {
	l := mustParse(t, `
for k = 1 to 10 do
begin
    A[k] := B[k] * 2;
    C[k] := B[k] + 1;
end`)
	if len(l.Body) != 2 {
		t.Fatalf("body: %v", l.Body)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 - 4 / 2")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	v, err := Eval(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("1+2*3-4/2 = %v, want 5", v)
	}
}

func TestParseParensAndUnary(t *testing.T) {
	e, err := ParseExpr("-(2 + 3) * -2")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := Eval(e, NewEnv())
	if v != 10 {
		t.Fatalf("got %v, want 10", v)
	}
}

func TestParseFortranDoubleLiteral(t *testing.T) {
	// The paper's loop 23 uses "0.75d0".
	e, err := ParseExpr("0.75d0 * 4")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := Eval(e, NewEnv())
	if v != 3 {
		t.Fatalf("0.75d0*4 = %v, want 3", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"while i = 1 to n do X[i] := 1",
		"for i = 1 to n X[i] := 1",
		"for i = 1 to n do X[i] = 1",
		"for i = 1 to n do begin X[i] := 1",
		"for i = 1 to n do X[i] := ",
		"for i = 1 to n do X[i] := (1 + 2",
		"for i = 1 to n do X := 1",
	}
	for _, src := range cases {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) err = %v, want ErrSyntax", src, err)
		}
	}
}

func TestRunInterpreter(t *testing.T) {
	l := mustParse(t, "for i = 1 to 4 do X[i] := X[i-1] + X[i]")
	env := NewEnv()
	env.Scalars["n"] = 4
	env.Arrays["X"] = []float64{1, 2, 3, 4, 5}
	if err := Run(l, env); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 6, 10, 15} // prefix sums
	for i, w := range want {
		if env.Arrays["X"][i] != w {
			t.Fatalf("X = %v, want %v", env.Arrays["X"], want)
		}
	}
}

func TestRunIndirection(t *testing.T) {
	l := mustParse(t, "for i = 0 to 2 do X[K[i]] := X[K[i]] + 10")
	env := NewEnv()
	env.Arrays["X"] = []float64{0, 0, 0, 0}
	env.Arrays["K"] = []float64{3, 1, 3}
	if err := Run(l, env); err != nil {
		t.Fatal(err)
	}
	got := env.Arrays["X"]
	if got[1] != 10 || got[3] != 20 {
		t.Fatalf("X = %v", got)
	}
}

func TestRunErrors(t *testing.T) {
	l := mustParse(t, "for i = 1 to 3 do X[i] := Y[i]")
	env := NewEnv()
	env.Arrays["X"] = []float64{0, 0, 0, 0}
	if err := Run(l, env); !errors.Is(err, ErrEval) {
		t.Fatalf("unbound array: err = %v", err)
	}
	l2 := mustParse(t, "for i = 1 to 9 do X[i] := 1")
	env2 := NewEnv()
	env2.Arrays["X"] = []float64{0, 0}
	if err := Run(l2, env2); !errors.Is(err, ErrEval) {
		t.Fatalf("out of range: err = %v", err)
	}
	l3 := mustParse(t, "for i = 1 to 2 do X[i/2] := 1")
	env3 := NewEnv()
	env3.Arrays["X"] = []float64{0, 0, 0}
	if err := Run(l3, env3); !errors.Is(err, ErrEval) {
		t.Fatalf("fractional index: err = %v", err)
	}
}

// --- classifier ---

func classify(t *testing.T, src string) *Analysis {
	t.Helper()
	return Analyze(mustParse(t, src))
}

func TestClassifyForms(t *testing.T) {
	cases := []struct {
		src    string
		form   Form
		bucket Bucket
	}{
		{"for i = 1 to n do X[i] := Y[i] * Z[i]", FormMap, BucketNone},
		{"for i = 1 to n do X[i] := X[i-1] + X[i]", FormOrdinaryIR, BucketLinear},
		{"for i = 1 to n do X[G[i]] := X[F[i]] * X[G[i]]", FormOrdinaryIR, BucketIndexed},
		{"for i = 1 to n do X[G[i]] := X[G[i]] + X[F[i]]", FormOrdinaryIR, BucketIndexed},
		{"for i = 2 to n do X[i] := X[i-1] * X[i-2]", FormGIR, BucketLinear},
		{"for i = 1 to n do X[G[i]] := X[F[i]] + X[H[i]]", FormGIR, BucketIndexed},
		{"for i = 1 to n do X[i] := A[i]*X[i-1] + B[i]", FormLinear, BucketLinear},
		{"for i = 1 to n do X[G[i]] := A[i]*X[F[i]] + B[i]", FormLinear, BucketIndexed},
		{"for i = 1 to n do X[G[i]] := X[G[i]] + A[i]*X[F[i]] + B[i]", FormLinearExtended, BucketIndexed},
		{"for i = 1 to n do X[G[i]] := (A[i]*X[F[i]]+B[i]) / (C[i]*X[F[i]]+D[i])", FormMoebius, BucketIndexed},
		{"for i = 1 to n do X[i] := X[i-1] * X[i-1]", FormGIR, BucketLinear},
		{"for i = 1 to n do X[G[i]] := X[F[i]] * X[F[i]] + 1", FormUnknown, BucketUnknown},
		{"for i = 1 to n do X[G[i]] := 1 / X[F[i]] + X[H[i]]", FormUnknown, BucketUnknown},
		{"for i = 1 to n do X[X[i]] := 1", FormUnknown, BucketUnknown},
	}
	for _, tc := range cases {
		an := classify(t, tc.src)
		if an.Form != tc.form || an.Bucket != tc.bucket {
			t.Errorf("%q:\n  got  form=%v bucket=%v (%s)\n  want form=%v bucket=%v",
				tc.src, an.Form, an.Bucket, an.Reason, tc.form, tc.bucket)
		}
	}
}

func TestClassifyPaperLoop23(t *testing.T) {
	// The paper's §3 example, 2-D implicit hydrodynamics inner loop in
	// flattened form: X[7(i-1)+j] with j fixed. Extended linear form.
	src := "for i = 2 to n do X[7*(i-1)+j] := X[7*(i-1)+j] + 0.75d0*(Y[i] + X[7*(i-2)+j]*Z[7*(i-1)+j])"
	an := classify(t, src)
	if an.Form != FormLinearExtended {
		t.Fatalf("form = %v (%s), want linear-extended", an.Form, an.Reason)
	}
	if an.Bucket != BucketIndexed {
		t.Fatalf("bucket = %v, want indexed", an.Bucket)
	}
	if !strings.Contains(an.Describe(), "extended") {
		t.Errorf("Describe: %s", an.Describe())
	}
}

func TestClassifyExtendedWithScaledSelf(t *testing.T) {
	// A general self coefficient: X[g] := 3*X[g] + 2*X[f] + 1 is still the
	// extended form (self-reference reads the initial value when g is
	// distinct).
	an := classify(t, "for i = 1 to n do X[G[i]] := 3*X[G[i]] + 2*X[F[i]] + 1")
	if an.Form != FormLinearExtended {
		t.Fatalf("form = %v (%s)", an.Form, an.Reason)
	}
}

func TestClassifyCoefficientSides(t *testing.T) {
	// Coefficient on the right of the X-ref, subtraction, division by
	// X-free expressions — all still linear.
	for _, src := range []string{
		"for i = 1 to n do X[G[i]] := X[F[i]]*A[i] - B[i]",
		"for i = 1 to n do X[G[i]] := X[F[i]]/A[i] + B[i]",
		"for i = 1 to n do X[G[i]] := -X[F[i]] + 1",
	} {
		an := classify(t, src)
		if an.Form != FormLinear {
			t.Errorf("%q: form = %v (%s), want linear", src, an.Form, an.Reason)
		}
	}
}

func TestClassifyMultiStatementIndependent(t *testing.T) {
	an := classify(t, `for i = 1 to n do begin A[i] := B[i]*2; C[i] := B[i]+1; end`)
	if an.Form != FormMap || an.Bucket != BucketNone {
		t.Fatalf("independent maps: form=%v bucket=%v (%s)", an.Form, an.Bucket, an.Reason)
	}
	an2 := classify(t, `for i = 1 to n do begin A[i] := B[i]; B[i] := A[i]; end`)
	if an2.Form != FormUnknown {
		t.Fatalf("cross-referencing body: form=%v, want unknown", an2.Form)
	}
}

// --- strategy ---

func TestStrategyNames(t *testing.T) {
	l := mustParse(t, "for i = 1 to n do X[i] := X[i-1] + X[i]")
	if s := Compile(l).Strategy(); s != "OrdinaryIR pointer jumping" {
		t.Fatalf("strategy = %q", s)
	}
}
