package lang

import (
	"strings"
	"testing"
)

const loop23Nest = `
for j = 1 to 6 do
    for i = 2 to n do
        X[7*(i-1)+j] := X[7*(i-1)+j] + 0.75d0*(Y[i] + X[7*(i-2)+j]*Z[7*(i-1)+j])
`

func TestParseNestedLoop(t *testing.T) {
	l := mustParse(t, loop23Nest)
	if l.Var != "j" {
		t.Fatalf("outer var = %q", l.Var)
	}
	inner := l.InnerLoop()
	if inner == nil {
		t.Fatal("InnerLoop() = nil")
	}
	if inner.Var != "i" {
		t.Fatalf("inner var = %q", inner.Var)
	}
	if l.Assigns() != nil {
		t.Fatal("Assigns() should be nil for a nest")
	}
	if l.TargetArray() != "X" {
		t.Fatalf("TargetArray = %q", l.TargetArray())
	}
}

func TestAnalyzeNest(t *testing.T) {
	an := Analyze(mustParse(t, loop23Nest))
	if !an.Nest {
		t.Fatal("Nest not detected")
	}
	if an.Form != FormLinearExtended || an.Bucket != BucketIndexed {
		t.Fatalf("form=%v bucket=%v", an.Form, an.Bucket)
	}
	if an.Inner == nil || an.Inner.Array != "X" {
		t.Fatalf("inner analysis: %+v", an.Inner)
	}
}

func TestNestStrategyString(t *testing.T) {
	c := Compile(mustParse(t, loop23Nest))
	s := c.Strategy()
	if !strings.Contains(s, "sequential outer") || !strings.Contains(s, "Moebius") {
		t.Fatalf("strategy = %q", s)
	}
}

func TestRunTripleNest(t *testing.T) {
	// Interpreter sanity on a 3-deep nest: accumulate k into T[0] for all
	// (a, b, k) combinations.
	src := `
for a = 1 to 2 do
  for b = 1 to 3 do
    for k = 1 to 4 do
      T[0] := T[0] + k
`
	l := mustParse(t, src)
	env := NewEnv()
	env.Arrays["T"] = []float64{0}
	if err := Run(l, env); err != nil {
		t.Fatal(err)
	}
	// Σk=1..4 k = 10, times 2*3 = 60.
	if env.Arrays["T"][0] != 60 {
		t.Fatalf("T[0] = %v, want 60", env.Arrays["T"][0])
	}
}
